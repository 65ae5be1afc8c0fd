package storage

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

func testImageSet(t testing.TB, n int) *dataset.ImageSet {
	t.Helper()
	s, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "test-set", N: n, Seed: 99, MinDim: 32, MaxDim: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testStore(t testing.TB, n int) *Store {
	t.Helper()
	st, err := FromImageSet(testImageSet(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startServer runs a server over an in-memory listener and returns a dial
// function.
func startServer(t testing.TB, cfg ServerConfig) (*Server, func() *Client) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	dial := func() *Client {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(conn, 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return srv, dial
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore("x", nil); err == nil {
		t.Fatal("accepted empty store")
	}
	if _, err := NewStore("x", [][]byte{{}}); err == nil {
		t.Fatal("accepted empty object")
	}
	st, err := NewStore("x", [][]byte{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 2 || st.TotalBytes() != 3 || st.Name() != "x" {
		t.Fatalf("store facts: N=%d total=%d name=%q", st.N(), st.TotalBytes(), st.Name())
	}
	if _, err := st.Get(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(2) err = %v", err)
	}
	b, err := st.Get(1)
	if err != nil || b[0] != 3 {
		t.Fatalf("Get(1) = %v, %v", b, err)
	}
}

func TestExecutorValidation(t *testing.T) {
	p := pipeline.DefaultStandard()
	if _, err := NewExecutor(nil, 1, 1, nil); err == nil {
		t.Fatal("accepted nil pipeline")
	}
	if _, err := NewExecutor(p, -1, 1, nil); err == nil {
		t.Fatal("accepted negative cores")
	}
	if _, err := NewExecutor(p, 1, 0.5, nil); err == nil {
		t.Fatal("accepted slowdown < 1")
	}
	e, err := NewExecutor(p, 3, 1, nil)
	if err != nil || e.Cores() != 3 {
		t.Fatalf("executor cores = %d, %v", e.Cores(), err)
	}
	z, _ := NewExecutor(p, 0, 1, nil)
	if z.Cores() != 0 {
		t.Fatal("zero-core executor reports cores")
	}
}

func TestExecutorRunPrefix(t *testing.T) {
	set := testImageSet(t, 1)
	raw, err := set.Raw(0)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.DefaultStandard()
	counters := &Counters{}
	e, err := NewExecutor(p, 2, 1, counters)
	if err != nil {
		t.Fatal(err)
	}
	seed := pipeline.Seed{Job: 1, Epoch: 1, Sample: 0}

	art, err := e.RunPrefix(raw, 0, seed)
	if err != nil || art.Kind != pipeline.KindRaw {
		t.Fatalf("split 0: %v kind=%v", err, art.Kind)
	}
	art, err = e.RunPrefix(raw, 2, seed)
	if err != nil || art.Kind != pipeline.KindImage {
		t.Fatalf("split 2: %v kind=%v", err, art.Kind)
	}
	if art.Image.W != 224 {
		t.Fatalf("split 2 image width %d", art.Image.W)
	}
	// The prefix ran Decode+RandomResizedCrop as one kernel; it still counts
	// the ops of the plan, not the kernels.
	if counters.OpsExecuted.Load() != 2 {
		t.Fatalf("ops executed = %d", counters.OpsExecuted.Load())
	}
	if art, err = e.RunPrefix(raw, p.Len(), seed); err != nil || art.Kind != pipeline.KindTensor {
		t.Fatalf("split %d: %v kind=%v", p.Len(), err, art.Kind)
	}
	if got, want := counters.OpsExecuted.Load(), uint64(2+p.Len()); got != want {
		t.Fatalf("ops executed = %d after a full prefix, want %d", got, want)
	}
	if counters.CPUNanos.Load() == 0 {
		t.Fatal("no CPU time recorded")
	}
	if _, err := e.RunPrefix(raw, 6, seed); err == nil {
		t.Fatal("accepted split beyond pipeline")
	}
	if _, err := e.RunPrefix(raw, -1, seed); err == nil {
		t.Fatal("accepted negative split")
	}
}

func TestExecutorZeroCoresRejectsOffload(t *testing.T) {
	e, _ := NewExecutor(pipeline.DefaultStandard(), 0, 1, nil)
	if _, err := e.RunPrefix([]byte{1}, 1, pipeline.Seed{}); !errors.Is(err, ErrNoOffload) {
		t.Fatalf("err = %v, want ErrNoOffload", err)
	}
	// Split 0 stays available.
	if _, err := e.RunPrefix([]byte{1}, 0, pipeline.Seed{}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorSlowdownStretchesOccupancy(t *testing.T) {
	set := testImageSet(t, 1)
	raw, _ := set.Raw(0)
	p := pipeline.DefaultStandard()
	fast := &Counters{}
	slow := &Counters{}
	ef, _ := NewExecutor(p, 1, 1, fast)
	es, _ := NewExecutor(p, 1, 4, slow)
	seed := pipeline.Seed{Job: 1, Epoch: 1, Sample: 0}
	if _, err := ef.RunPrefix(raw, 2, seed); err != nil {
		t.Fatal(err)
	}
	if _, err := es.RunPrefix(raw, 2, seed); err != nil {
		t.Fatal(err)
	}
	if slow.CPUNanos.Load() < 2*fast.CPUNanos.Load() {
		t.Fatalf("slowdown 4x recorded %dns vs fast %dns", slow.CPUNanos.Load(), fast.CPUNanos.Load())
	}
}

func TestServerConfigValidation(t *testing.T) {
	st := testStore(t, 1)
	if _, err := NewServer(ServerConfig{Pipeline: pipeline.DefaultStandard()}); err == nil {
		t.Fatal("accepted nil store")
	}
	if _, err := NewServer(ServerConfig{Store: st}); err == nil {
		t.Fatal("accepted nil pipeline")
	}
	if _, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Slowdown: 0.2}); err == nil {
		t.Fatal("accepted slowdown < 1")
	}
}

// TestFetchAllSplitsMatchLocal is the networked version of the
// split-equivalence invariant: every split fetched over the wire, finished
// locally, matches a fully local run.
func TestFetchAllSplitsMatchLocal(t *testing.T) {
	set := testImageSet(t, 3)
	st, err := FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.DefaultStandard()
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 4})
	c := dial()

	if c.DatasetName() != "test-set" || c.NumSamples() != 3 {
		t.Fatalf("handshake facts: %q %d", c.DatasetName(), c.NumSamples())
	}

	const epoch = 3
	for sample := uint32(0); sample < 3; sample++ {
		raw, _ := set.Raw(int(sample))
		seed := pipeline.Seed{Job: 42, Epoch: epoch, Sample: uint64(sample)}
		want, err := p.Run(raw, seed)
		if err != nil {
			t.Fatal(err)
		}
		for split := 0; split <= p.Len(); split++ {
			res, err := c.Fetch(context.Background(), sample, split, epoch)
			if err != nil {
				t.Fatalf("fetch sample=%d split=%d: %v", sample, split, err)
			}
			got, err := p.RunRange(res.Artifact, split, p.Len(), seed)
			if err != nil {
				t.Fatalf("suffix sample=%d split=%d: %v", sample, split, err)
			}
			if !got.Equal(want) {
				t.Fatalf("sample=%d split=%d differs from local run", sample, split)
			}
			if res.WireBytes <= res.Artifact.WireSize() {
				t.Fatalf("wire bytes %d not > artifact %d", res.WireBytes, res.Artifact.WireSize())
			}
		}
	}
}

func TestFetchErrors(t *testing.T) {
	st := testStore(t, 2)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	c := dial()

	if _, err := c.Fetch(context.Background(), 99, 0, 1); !errors.Is(err, ErrSampleMissing) {
		t.Fatalf("missing sample err = %v", err)
	}
	if _, err := c.Fetch(context.Background(), 0, 6, 1); !errors.Is(err, ErrBadSplitReq) {
		t.Fatalf("oversized split err = %v", err)
	}
	if _, err := c.Fetch(context.Background(), 0, 300, 1); err == nil {
		t.Fatal("accepted split > 255")
	}
}

func TestFetchOffloadDisabled(t *testing.T) {
	st := testStore(t, 1)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	c := dial()
	if _, err := c.Fetch(context.Background(), 0, 2, 1); !errors.Is(err, ErrBadSplitReq) {
		t.Fatalf("offload with 0 cores err = %v", err)
	}
	if _, err := c.Fetch(context.Background(), 0, 0, 1); err != nil {
		t.Fatalf("raw fetch with 0 cores: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := testStore(t, 2)
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 2})
	c := dial()

	if _, err := c.Fetch(context.Background(), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(context.Background(), 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SamplesServed != 2 {
		t.Fatalf("samples served = %d", stats.SamplesServed)
	}
	if stats.OpsExecuted != 2 {
		t.Fatalf("ops executed = %d", stats.OpsExecuted)
	}
	if stats.BytesSent == 0 || stats.ServerCPUNanos == 0 {
		t.Fatalf("stats zeroed: %+v", stats)
	}
	if srv.Counters().SamplesServed.Load() != 2 {
		t.Fatal("server counters disagree with stats")
	}
}

func TestConcurrentClients(t *testing.T) {
	const n = 6
	st := testStore(t, n)
	p := pipeline.DefaultStandard()
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 2})

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(sample uint32) {
			defer wg.Done()
			c := dial()
			res, err := c.Fetch(context.Background(), sample, 2, 1)
			if err != nil {
				errs <- err
				return
			}
			if res.Artifact.Kind != pipeline.KindImage {
				errs <- errors.New("wrong artifact kind")
			}
		}(uint32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	st := testStore(t, 1)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard()})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	defer srv.Close()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.StatsReq{}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.ErrorResp); !ok {
		t.Fatalf("got %s, want ErrorResp", msg.Type())
	}
}

// TestHandshakeRejectsBadVersion writes its own Hello: the client has no way
// to speak another version. Any Hello.Version != wire.Version — a future one,
// or the v3 of the two-verb protocol — is answered with the typed ErrorResp
// on RequestID 0 and the connection closed.
func TestHandshakeRejectsBadVersion(t *testing.T) {
	st := testStore(t, 1)
	srv, _ := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard()})
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	defer srv.Close()

	for _, version := range []uint16{99, 3, 0} {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Write(conn, &wire.Hello{Version: version, JobID: 1}); err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		er, ok := msg.(*wire.ErrorResp)
		if !ok || er.RequestID != 0 || er.Code != wire.CodeBadRequest ||
			er.Message != fmt.Sprintf("unsupported version %d", version) {
			t.Fatalf("version %d: got %s %+v, want the unsupported-version ErrorResp", version, msg.Type(), msg)
		}
		if _, err := wire.Read(conn); err == nil {
			t.Fatalf("version %d: connection left open after the rejection", version)
		}
		conn.Close()
	}

	// The client's side of the same exchange: a rejected Hello is an error
	// from the constructor, naming the server's reason.
	cconn, sconn := net.Pipe()
	go func() {
		defer sconn.Close()
		if _, err := wire.Read(sconn); err == nil {
			wire.Write(sconn, &wire.ErrorResp{Code: wire.CodeBadRequest, Message: "unsupported version 4"})
		}
	}()
	if _, err := NewClient(cconn, 1); err == nil || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Fatalf("rejected handshake: err = %v", err)
	}
}

func TestServerCloseIdempotentAndRejectsServe(t *testing.T) {
	st := testStore(t, 1)
	srv, _ := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard()})
	l := netsim.NewPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	// Prove Serve is accepting before closing: a completed handshake has
	// round-tripped through the accept loop, no timing assumption needed.
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewClient(conn, 1)
	if err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	probe.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Close = %v", err)
	}
}

func TestClientClosedOperations(t *testing.T) {
	st := testStore(t, 1)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard()})
	c := dial()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(context.Background(), 0, 0, 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Fetch after close = %v", err)
	}
	if _, err := c.Stats(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Stats after close = %v", err)
	}
}

func TestServerOverRealTCP(t *testing.T) {
	st := testStore(t, 2)
	p := pipeline.DefaultStandard()
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: p, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Addr().String(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Fetch(context.Background(), 1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifact.Kind != pipeline.KindTensor {
		t.Fatalf("full offload returned %s", res.Artifact.Kind)
	}
}

func TestServerOverShapedLink(t *testing.T) {
	// End-to-end through the token-bucket shaper: correctness preserved.
	st := testStore(t, 1)
	p := pipeline.DefaultStandard()
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: p, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bucket, err := netsim.NewTokenBucket(netsim.Mbps(200), 64<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(netsim.ShapeListener(inner, bucket))
	defer srv.Close()

	c, err := Dial(inner.Addr().String(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Fetch(context.Background(), 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifact.Kind != pipeline.KindImage {
		t.Fatalf("shaped fetch returned %s", res.Artifact.Kind)
	}
}
