package storage

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// fakeServer handshakes on the server end of an in-memory pipe and hands the
// connection to handler; the client end is returned. It lets tests script
// exact response orderings the real server would only produce under races.
func fakeServer(t *testing.T, handler func(conn net.Conn)) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		msg, err := wire.Read(server)
		if err != nil {
			return
		}
		if _, ok := msg.(*wire.Hello); !ok {
			return
		}
		if err := wire.Write(server, &wire.HelloAck{
			Version: wire.Version, DatasetName: "fake", NumSamples: 100,
		}); err != nil {
			return
		}
		handler(server)
	}()
	t.Cleanup(func() { client.Close() })
	return client
}

// readFetches reads n one-sample FetchBatch frames and returns them keyed by
// sample ID.
func readFetches(t *testing.T, conn net.Conn, n int) map[uint32]*wire.FetchBatch {
	t.Helper()
	out := make(map[uint32]*wire.FetchBatch, n)
	for i := 0; i < n; i++ {
		msg, err := wire.Read(conn)
		if err != nil {
			t.Errorf("fake server read %d: %v", i, err)
			return out
		}
		f, ok := msg.(*wire.FetchBatch)
		if !ok || len(f.Items) != 1 {
			t.Errorf("fake server got %s, want a one-item FetchBatch", msg.Type())
			return out
		}
		out[f.Items[0].Sample] = f
	}
	return out
}

// rawRespFor answers a one-sample request with the raw payload as artifact.
func rawRespFor(t *testing.T, req *wire.FetchBatch, payload []byte) *wire.FetchBatchResp {
	t.Helper()
	enc, err := pipeline.RawArtifact(payload).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.FetchBatchResp{RequestID: req.RequestID, Items: []wire.FetchBatchRespItem{{
		Sample: req.Items[0].Sample, Split: req.Items[0].Split, Status: wire.FetchOK, Artifact: enc,
	}}}
}

// TestSessionSustainsFourInFlight proves genuine pipelining: the fake server
// refuses to answer until it has read four requests off one connection, then
// responds in reverse order. A lock-step client would deadlock here.
func TestSessionSustainsFourInFlight(t *testing.T) {
	const n = 4
	conn := fakeServer(t, func(server net.Conn) {
		reqs := readFetches(t, server, n)
		for s := uint32(n); s >= 1; s-- { // reverse order
			req, ok := reqs[s]
			if !ok {
				return
			}
			if err := wire.Write(server, rawRespFor(t, req, []byte{byte(s), 0xAA})); err != nil {
				return
			}
		}
	})
	c, err := NewClientWithOptions(conn, ClientOptions{JobID: 1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sample := uint32(i + 1)
			res, err := FetchOne(context.Background(), c, sample, 0, 1)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Sample != sample || res.Artifact.Kind != pipeline.KindRaw ||
				!bytes.Equal(res.Artifact.Raw, []byte{byte(sample), 0xAA}) {
				t.Errorf("sample %d got wrong response: %+v", sample, res)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
}

// TestSessionCancelDoesNotPoison cancels one in-flight request and checks
// (a) the caller unblocks promptly with the context error, (b) other
// in-flight requests complete, and (c) the session survives both the cancel
// and the server's late response to the cancelled request.
func TestSessionCancelDoesNotPoison(t *testing.T) {
	release := make(chan struct{})
	conn := fakeServer(t, func(server net.Conn) {
		reqs := readFetches(t, server, 2) // samples 1 (to cancel) and 2
		if len(reqs) != 2 {
			return
		}
		if err := wire.Write(server, rawRespFor(t, reqs[2], []byte{2})); err != nil {
			return
		}
		<-release // wait until sample 1's caller was cancelled
		req3 := readFetches(t, server, 1)[3]
		if req3 == nil {
			return
		}
		// Late response to the cancelled request: must be dropped silently.
		if err := wire.Write(server, rawRespFor(t, reqs[1], []byte{1})); err != nil {
			return
		}
		if err := wire.Write(server, rawRespFor(t, req3, []byte{3})); err != nil {
			return
		}
	})
	c, err := NewClientWithOptions(conn, ClientOptions{JobID: 1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx1, cancel1 := context.WithCancel(context.Background())
	fetch1Err := make(chan error, 1)
	go func() {
		_, err := FetchOne(ctx1, c, 1, 0, 1)
		fetch1Err <- err
	}()

	// Sample 2 completes while sample 1 is stuck in flight.
	res2, err := FetchOne(context.Background(), c, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.Artifact.Raw, []byte{2}) {
		t.Fatalf("sample 2 payload %v", res2.Artifact.Raw)
	}

	cancel1()
	select {
	case err := <-fetch1Err:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled fetch err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled fetch did not unblock")
	}
	close(release)

	// The session still works after the cancel and the dropped late response.
	res3, err := FetchOne(context.Background(), c, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res3.Artifact.Raw, []byte{3}) {
		t.Fatalf("sample 3 payload %v", res3.Artifact.Raw)
	}
}

// silentPeer returns the client end of a pipe whose server end reads the
// Hello frame, signals heard, and never answers.
func silentPeer(t *testing.T, heard chan<- struct{}) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { server.Close() })
	go func() {
		if _, err := wire.Read(server); err == nil {
			select {
			case heard <- struct{}{}:
			default:
			}
		}
	}()
	return client
}

// TestHandshakeTimeout: RequestTimeout bounds the handshake too, so a peer
// that never answers Hello fails it with errRequestTimeout instead of
// blocking the caller forever.
func TestHandshakeTimeout(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		c, err := NewClientWithOptions(silentPeer(t, nil), ClientOptions{RequestTimeout: 50 * time.Millisecond})
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errRequestTimeout) {
			t.Fatalf("err = %v, want ErrRequestTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake still blocked 5 s into a 50 ms RequestTimeout")
	}
}

// TestCloseDuringHungRedial: a redial that meets a silent peer holds the
// reconnecting client's lock only until its handshake times out, so Close
// returns instead of waiting on it forever.
func TestCloseDuringHungRedial(t *testing.T) {
	good := flakyDialer(t, startRetryServer(t, 1, 1), 1<<30)
	heard := make(chan struct{}, 1)
	first := true
	rc, err := NewReconnecting(func() (*Client, error) {
		if first {
			first = false
			return good()
		}
		return NewClientWithOptions(silentPeer(t, heard), ClientOptions{RequestTimeout: 50 * time.Millisecond})
	}, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc.invalidate(0) // drop the live session so the next operation redials
	go rc.Stats(context.Background())
	select {
	case <-heard:
	case <-time.After(5 * time.Second):
		t.Fatal("the operation never redialed")
	}
	closed := make(chan error, 1)
	go func() { closed <- rc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked 5 s behind a redial with a 50 ms RequestTimeout")
	}
}

// TestSessionRequestTimeout checks that a stalled server can no longer hang
// a caller forever: the per-request timeout fires and surfaces as the
// retryable errRequestTimeout.
func TestSessionRequestTimeout(t *testing.T) {
	conn := fakeServer(t, func(server net.Conn) {
		for { // swallow requests, never answer
			if _, err := wire.Read(server); err != nil {
				return
			}
		}
	})
	c, err := NewClientWithOptions(conn, ClientOptions{JobID: 1, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = FetchOne(context.Background(), c, 1, 0, 1)
	if !errors.Is(err, errRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}

	// A caller's own cancellation is reported as such, not as a timeout.
	// The fake server signals once the request frame has arrived, so the
	// cancel provably lands while the fetch is in flight.
	sawFetch := make(chan struct{})
	c2, err := NewClientWithOptions(fakeServer(t, func(server net.Conn) {
		first := true
		for {
			if _, err := wire.Read(server); err != nil {
				return
			}
			if first {
				first = false
				close(sawFetch)
			}
		}
	}), ClientOptions{JobID: 1, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sawFetch
		cancel()
	}()
	if _, err := FetchOne(ctx, c2, 1, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSessionPerRequestError checks that an ErrorResp carrying a RequestID
// fails only that request while the session keeps serving others.
func TestSessionPerRequestError(t *testing.T) {
	conn := fakeServer(t, func(server net.Conn) {
		reqs := readFetches(t, server, 2)
		if len(reqs) != 2 {
			return
		}
		if err := wire.Write(server, &wire.ErrorResp{
			RequestID: reqs[1].RequestID, Code: wire.CodeBadRequest, Message: "scripted failure",
		}); err != nil {
			return
		}
		if err := wire.Write(server, rawRespFor(t, reqs[2], []byte{2})); err != nil {
			return
		}
	})
	c, err := NewClientWithOptions(conn, ClientOptions{JobID: 1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	var err1, err2 error
	go func() {
		defer wg.Done()
		_, err1 = FetchOne(context.Background(), c, 1, 0, 1)
	}()
	go func() {
		defer wg.Done()
		_, err2 = FetchOne(context.Background(), c, 2, 0, 1)
	}()
	wg.Wait()
	if err1 == nil || errors.Is(err1, ErrClientClosed) {
		t.Fatalf("errored request got %v", err1)
	}
	if err2 != nil {
		t.Fatalf("healthy request got %v", err2)
	}
}

// TestSessionConcurrentDemuxStress hammers one real server connection with
// concurrent callers and checks every caller receives the response matching
// its request (raw payload equals the stored object for that sample ID).
// Run with -race: this is the demux-correctness acceptance test.
func TestSessionConcurrentDemuxStress(t *testing.T) {
	const (
		goroutines = 16
		perG       = 25
		samples    = 8
	)
	st := testStore(t, samples)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 2})
	c := dial()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				id := uint32((g*perG + k) % samples)
				res, err := FetchOne(context.Background(), c, id, 0, 1)
				if err != nil {
					t.Errorf("g%d fetch %d: %v", g, id, err)
					return
				}
				want, err := st.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Sample != id || res.Artifact.Kind != pipeline.KindRaw ||
					!bytes.Equal(res.Artifact.Raw, want) {
					t.Errorf("g%d: response for sample %d does not match stored object", g, id)
					return
				}
				if k%10 == 0 {
					if _, err := c.Stats(context.Background()); err != nil {
						t.Errorf("g%d stats: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionConcurrentOverFlakyConn runs concurrent callers over a
// connection that dies after a byte budget: every caller must get either a
// correct response or an error — never a wrong sample, never a hang.
func TestSessionConcurrentOverFlakyConn(t *testing.T) {
	st := testStore(t, 4)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientWithOptions(chaos.WrapConn(conn, chaos.CloseAfter(96<<10), nil, nil, nil), ClientOptions{
		JobID: 42, RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	var okCount, errCount int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				id := uint32((g + k) % 4)
				res, err := FetchOne(context.Background(), c, id, 0, 1)
				mu.Lock()
				if err != nil {
					errCount++
				} else {
					okCount++
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				want, _ := st.Get(id)
				if res.Sample != id || !bytes.Equal(res.Artifact.Raw, want) {
					t.Errorf("g%d: wrong payload for sample %d", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if okCount == 0 {
		t.Fatal("no fetch succeeded before the budget")
	}
	if errCount == 0 {
		t.Fatal("flaky budget never fired; raise the request count or lower the budget")
	}
}

// TestReconnectingConcurrentCallers drives concurrent callers through
// ReconnectingClient over connections that keep dying: all fetches must
// eventually succeed with correct payloads, and teardown must be
// single-flight (the session pipelines between failures).
func TestReconnectingConcurrentCallers(t *testing.T) {
	st := testStore(t, 4)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	rc, err := NewReconnecting(func() (*Client, error) {
		conn, err := l.Dial()
		if err != nil {
			return nil, err
		}
		return NewClientWithOptions(chaos.WrapConn(conn, chaos.CloseAfter(48<<10), nil, nil, nil), ClientOptions{
			JobID: 42, RequestTimeout: 5 * time.Second,
		})
	}, 30, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				id := uint32((g + k) % 4)
				res, err := FetchOne(context.Background(), rc, id, 0, 1)
				if err != nil {
					t.Errorf("g%d fetch %d: %v", g, id, err)
					return
				}
				want, _ := st.Get(id)
				if res.Sample != id || !bytes.Equal(res.Artifact.Raw, want) {
					t.Errorf("g%d: wrong payload for sample %d", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if rc.Retries() == 0 {
		t.Fatal("flaky connections never triggered a reconnect")
	}
}
