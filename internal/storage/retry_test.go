package storage

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// flakyDialer returns a dial function whose connections fail after budget
// bytes.
func flakyDialer(t testing.TB, l *netsim.PipeListener, budget int64) func() (*Client, error) {
	t.Helper()
	return func() (*Client, error) {
		conn, err := l.Dial()
		if err != nil {
			return nil, err
		}
		return NewClientWithOptions(chaos.WrapConn(conn, chaos.CloseAfter(budget), nil, nil, nil), ClientOptions{JobID: 3})
	}
}

func startRetryServer(t testing.TB, n, cores int) *netsim.PipeListener {
	t.Helper()
	st := testStore(t, n)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l
}

func TestReconnectingValidation(t *testing.T) {
	l := startRetryServer(t, 1, 1)
	if _, err := NewReconnecting(nil, 3, 0, nil); err == nil {
		t.Fatal("accepted nil dialer")
	}
	if _, err := NewReconnecting(flakyDialer(t, l, 1<<20), 0, 0, nil); err == nil {
		t.Fatal("accepted attempts < 1")
	}
	failing := func() (*Client, error) { return nil, errors.New("refused") }
	if _, err := NewReconnecting(failing, 3, 0, nil); err == nil {
		t.Fatal("eager dial failure not surfaced")
	}
}

func TestReconnectingSurvivesConnectionDeath(t *testing.T) {
	l := startRetryServer(t, 4, 1)
	// Each connection dies after ~40 KB; raw samples here are a few KB, so
	// several fetches succeed per connection before a redial is needed.
	rc, err := NewReconnecting(flakyDialer(t, l, 40<<10), 5, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.NumSamples() != 4 || rc.DatasetName() == "" {
		t.Fatalf("handshake facts: %d %q", rc.NumSamples(), rc.DatasetName())
	}
	for k := 0; k < 40; k++ {
		res, err := FetchOne(context.Background(), rc, uint32(k%4), 0, 1)
		if err != nil {
			t.Fatalf("fetch %d: %v", k, err)
		}
		if res.Artifact.Kind != pipeline.KindRaw {
			t.Fatalf("fetch %d kind %s", k, res.Artifact.Kind)
		}
	}
	if rc.Retries() == 0 {
		t.Fatal("no reconnects despite flaky links")
	}
	if _, err := rc.Stats(context.Background()); err != nil {
		t.Fatalf("stats over flaky link: %v", err)
	}
}

func TestReconnectingGivesUpEventually(t *testing.T) {
	l := startRetryServer(t, 1, 1)
	// Budget so small even the handshake+one fetch cannot complete on
	// retries: handshake succeeds (small), first fetch dies, every redial
	// dies again.
	rc, err := NewReconnecting(flakyDialer(t, l, 60), 3, 0, nil)
	if err != nil {
		// The eager dial may itself fail with this budget; that's a valid
		// outcome for this test.
		return
	}
	defer rc.Close()
	if _, err := FetchOne(context.Background(), rc, 0, 0, 1); err == nil {
		t.Fatal("fetch succeeded with an impossible byte budget")
	}
}

func TestReconnectingDoesNotRetryPermanentErrors(t *testing.T) {
	l := startRetryServer(t, 2, 1)
	rc, err := NewReconnecting(flakyDialer(t, l, 1<<30), 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := FetchOne(context.Background(), rc, 99, 0, 1); !errors.Is(err, ErrSampleMissing) {
		t.Fatalf("missing sample err = %v", err)
	}
	if rc.Retries() != 0 {
		t.Fatalf("%d retries for a permanent error", rc.Retries())
	}
	if _, err := FetchOne(context.Background(), rc, 0, 6, 1); !errors.Is(err, ErrBadSplitReq) {
		t.Fatalf("bad split err = %v", err)
	}
}

func TestReconnectingClosedOperations(t *testing.T) {
	l := startRetryServer(t, 1, 1)
	rc, err := NewReconnecting(flakyDialer(t, l, 1<<30), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := FetchOne(context.Background(), rc, 0, 0, 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("fetch after close = %v", err)
	}
}

func TestReconnectingBatchFetch(t *testing.T) {
	l := startRetryServer(t, 4, 2)
	rc, err := NewReconnecting(flakyDialer(t, l, 100<<10), 6, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for k := 0; k < 10; k++ {
		res, err := rc.FetchBatch(context.Background(), []uint32{0, 1, 2, 3}, []int{0, 0, 2, 2}, uint64(k))
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if len(res) != 4 {
			t.Fatalf("batch %d returned %d items", k, len(res))
		}
	}
}
