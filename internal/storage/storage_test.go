package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
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
		c, err := NewClientWithOptions(conn, ClientOptions{JobID: 42})
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
	if _, err := st.Get(2); !errors.Is(err, errNotFound) {
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
	for _, slowdown := range []float64{0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewExecutor(p, 1, slowdown, nil); err == nil {
			t.Fatalf("accepted slowdown %v", slowdown)
		}
	}
	e, err := NewExecutor(p, 3, 1, nil)
	if err != nil || e.cores() != 3 {
		t.Fatalf("executor cores = %d, %v", e.cores(), err)
	}
	z, _ := NewExecutor(p, 0, 1, nil)
	if z.cores() != 0 {
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

	art, err := e.runPrefix(raw, nil, 0, seed)
	if err != nil || art.Kind != pipeline.KindRaw {
		t.Fatalf("split 0: %v kind=%v", err, art.Kind)
	}
	art, err = e.runPrefix(raw, nil, 1, seed)
	if err != nil || art.Kind != pipeline.KindPlanes {
		t.Fatalf("split 1: %v kind=%v", err, art.Kind)
	}
	if w, h := art.Planes.Dims(); art.WireSize() != pipeline.ImageWireSize(w, h) {
		t.Fatalf("split 1 priced %d B, not the law's decoded %dx%d image", art.WireSize(), w, h)
	}
	art, err = e.runPrefix(raw, nil, 2, seed)
	if err != nil || art.Kind != pipeline.KindImage {
		t.Fatalf("split 2: %v kind=%v", err, art.Kind)
	}
	if art.Image.W != 224 {
		t.Fatalf("split 2 image width %d", art.Image.W)
	}
	// The prefix ran Decode+RandomResizedCrop as one kernel; it still counts
	// the ops of the plan, not the kernels.
	if counters.OpsExecuted.Load() != 3 {
		t.Fatalf("ops executed = %d", counters.OpsExecuted.Load())
	}
	if art, err = e.runPrefix(raw, nil, p.Len(), seed); err != nil || art.Kind != pipeline.KindTensor {
		t.Fatalf("split %d: %v kind=%v", p.Len(), err, art.Kind)
	}
	if got, want := counters.OpsExecuted.Load(), uint64(3+p.Len()); got != want {
		t.Fatalf("ops executed = %d after a full prefix, want %d", got, want)
	}
	if counters.CPUNanos.Load() == 0 {
		t.Fatal("no CPU time recorded")
	}
	if _, err := e.runPrefix(raw, nil, 6, seed); err == nil {
		t.Fatal("accepted split beyond pipeline")
	}
	if _, err := e.runPrefix(raw, nil, -1, seed); err == nil {
		t.Fatal("accepted negative split")
	}
}

func TestExecutorZeroCoresRejectsOffload(t *testing.T) {
	e, _ := NewExecutor(pipeline.DefaultStandard(), 0, 1, nil)
	if _, err := e.runPrefix([]byte{1}, nil, 1, pipeline.Seed{}); !errors.Is(err, errNoOffload) {
		t.Fatalf("err = %v, want ErrNoOffload", err)
	}
	// Split 0 stays available.
	if _, err := e.runPrefix([]byte{1}, nil, 0, pipeline.Seed{}); err != nil {
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
	// One run on a loaded host can be stretched by preemption (or be the
	// cold first one), so compare the fastest of interleaved runs on each.
	run := func(e *Executor, c *Counters) uint64 {
		before := c.CPUNanos.Load()
		if _, err := e.runPrefix(raw, nil, 2, seed); err != nil {
			t.Fatal(err)
		}
		return c.CPUNanos.Load() - before
	}
	minFast, minSlow := run(ef, fast), run(es, slow)
	for i := 1; i < 7; i++ {
		minFast, minSlow = min(minFast, run(ef, fast)), min(minSlow, run(es, slow))
	}
	if minSlow < 2*minFast {
		t.Fatalf("slowdown 4x recorded %dns at best vs fast %dns at best", minSlow, minFast)
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
// locally, matches a fully local run. Cut 1 is fetched first, decoding a cold
// object into its store slot, and again last, served from the filled slot.
func TestFetchAllSplitsMatchLocal(t *testing.T) {
	set := testImageSet(t, 3)
	st, err := FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.DefaultStandard()
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 4})
	c := dial()

	want := Tier{Samples: 3, Pipeline: p.Fingerprint(), Cores: 4, Slowdown: 1, Shards: 1}
	if c.ack.DatasetName != "test-set" || c.Tier() != want {
		t.Fatalf("handshake facts: %q %+v, want %+v", c.ack.DatasetName, c.Tier(), want)
	}

	const epoch = 3
	for sample := uint32(0); sample < 3; sample++ {
		raw, _ := set.Raw(int(sample))
		seed := pipeline.Seed{Job: 42, Epoch: epoch, Sample: uint64(sample)}
		want, err := p.Run(raw, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []int{0, 1, 2, 3, 4, 5, 1} {
			res, err := FetchOne(context.Background(), c, sample, split, epoch)
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
			if enc, _ := res.Artifact.AppendEncode(nil); res.WireBytes <= len(enc) {
				t.Fatalf("wire bytes %d not > artifact %d", res.WireBytes, len(enc))
			}
		}
	}
	if got := srv.exec.wholeDecodes.Load(); got != 3 {
		t.Fatalf("%d whole decodes of 3 objects, want one each", got)
	}
}

func TestFetchErrors(t *testing.T) {
	st := testStore(t, 2)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	c := dial()

	if _, err := FetchOne(context.Background(), c, 99, 0, 1); !errors.Is(err, ErrSampleMissing) {
		t.Fatalf("missing sample err = %v", err)
	}
	if _, err := FetchOne(context.Background(), c, 0, 6, 1); !errors.Is(err, ErrBadSplitReq) {
		t.Fatalf("oversized split err = %v", err)
	}
	if _, err := FetchOne(context.Background(), c, 0, 300, 1); err == nil {
		t.Fatal("accepted split > 255")
	}
}

func TestFetchOffloadDisabled(t *testing.T) {
	st := testStore(t, 1)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	c := dial()
	if _, err := FetchOne(context.Background(), c, 0, 2, 1); !errors.Is(err, ErrBadSplitReq) {
		t.Fatalf("offload with 0 cores err = %v", err)
	}
	if _, err := FetchOne(context.Background(), c, 0, 0, 1); err != nil {
		t.Fatalf("raw fetch with 0 cores: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := testStore(t, 2)
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 2})
	c := dial()

	if _, err := FetchOne(context.Background(), c, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := FetchOne(context.Background(), c, 1, 2, 1); err != nil {
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
			res, err := FetchOne(context.Background(), c, sample, 2, 1)
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
	if _, err := NewClientWithOptions(cconn, ClientOptions{JobID: 1}); err == nil || !strings.Contains(err.Error(), "unsupported version 4") {
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
	probe, err := NewClientWithOptions(conn, ClientOptions{JobID: 1})
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
	if _, err := FetchOne(context.Background(), c, 0, 0, 1); !errors.Is(err, ErrClientClosed) {
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

	c, err := DialWithOptions(l.Addr().String(), ClientOptions{JobID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := FetchOne(context.Background(), c, 1, 5, 2)
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

	c, err := DialWithOptions(inner.Addr().String(), ClientOptions{JobID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := FetchOne(context.Background(), c, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifact.Kind != pipeline.KindPlanes {
		t.Fatalf("shaped fetch returned %s", res.Artifact.Kind)
	}
}
