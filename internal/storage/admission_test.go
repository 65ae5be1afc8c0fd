package storage

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/simclock"
)

func TestAdmissionValidation(t *testing.T) {
	if _, err := NewAdmissionController(AdmissionConfig{}); err == nil {
		t.Fatal("accepted zero budget")
	}
	if _, err := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 1, MaxQueuePerTenant: -1}); err == nil {
		t.Fatal("accepted negative queue bound")
	}
	if _, err := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 1, RetryAfter: -time.Second}); err == nil {
		t.Fatal("accepted negative retry-after")
	}
	c, err := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.MaxInFlightBytes != 100 || st.RetryAfterMillis != DefaultRetryAfterHint.Milliseconds() {
		t.Fatalf("defaults not applied: %+v", st)
	}
}

func TestAdmissionFastPath(t *testing.T) {
	c, _ := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 100})
	rel1, err := c.Acquire(1, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := c.Acquire(2, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().InFlightBytes; got != 100 {
		t.Fatalf("in-flight = %d, want 100", got)
	}
	rel1()
	rel2()
	if got := c.Stats().InFlightBytes; got != 0 {
		t.Fatalf("in-flight after release = %d, want 0", got)
	}
	if got := c.Stats().Admitted; got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
}

func TestAdmissionQueuesThenGrants(t *testing.T) {
	c, _ := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 100})
	rel, err := c.Acquire(1, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		rel2, err := c.Acquire(2, 50, nil)
		if err != nil {
			t.Error(err)
			close(granted)
			return
		}
		close(granted)
		rel2()
	}()
	select {
	case <-granted:
		t.Fatal("second acquire should have queued")
	case <-time.After(20 * time.Millisecond):
	}
	if got := c.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth = %d, want 1", got)
	}
	rel()
	select {
	case <-granted:
	case <-time.After(time.Second):
		t.Fatal("queued acquire never granted")
	}
	if got := c.Stats().Queued; got != 1 {
		t.Fatalf("queued counter = %d, want 1", got)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	c, _ := NewAdmissionController(AdmissionConfig{
		MaxInFlightBytes:  10,
		MaxQueuePerTenant: 2,
		RetryAfter:        25 * time.Millisecond,
	})
	rel, err := c.Acquire(1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// Fill tenant 1's queue.
	var wg sync.WaitGroup
	cancel := make(chan struct{})
	defer close(cancel)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := c.Acquire(1, 5, cancel); err == nil {
				r()
			}
		}()
	}
	waitFor(t, func() bool { return c.Stats().QueueDepth == 2 })
	_, err = c.Acquire(1, 5, nil)
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("err = %v, want RetryAfterError", err)
	}
	if !errors.Is(err, ErrServerBusy) {
		t.Fatal("RetryAfterError must match ErrServerBusy")
	}
	if ra.Delay != 25*time.Millisecond || ra.Queued != 2 {
		t.Fatalf("hint %+v, want 25ms / 2 queued", ra)
	}
	// A different tenant still has queue room.
	done := make(chan struct{})
	go func() {
		if r, err := c.Acquire(2, 5, cancel); err == nil {
			r()
		}
		close(done)
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 3 })
	if got := c.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	rel()
	wg.Wait()
	<-done
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	c, _ := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 10})
	rel, err := c.Acquire(1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Acquire(2, 5, cancel)
		errCh <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })
	close(cancel)
	if err := <-errCh; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("cancelled acquire err = %v", err)
	}
	if got := c.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", got)
	}
	rel()
	// Budget intact: a full-budget acquire succeeds immediately.
	rel2, err := c.Acquire(3, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

func TestAdmissionOversizedRequestRunsAlone(t *testing.T) {
	c, _ := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 10})
	rel, err := c.Acquire(1, 1000, nil) // bigger than the whole budget
	if err != nil {
		t.Fatalf("idle oversized acquire failed: %v", err)
	}
	// While it runs, nothing else fits.
	granted := make(chan struct{})
	cancel := make(chan struct{})
	go func() {
		if r, err := c.Acquire(2, 1, cancel); err == nil {
			close(granted)
			r()
		}
	}()
	select {
	case <-granted:
		t.Fatal("acquire fit alongside oversized request")
	case <-time.After(20 * time.Millisecond):
	}
	rel()
	select {
	case <-granted:
	case <-time.After(time.Second):
		t.Fatal("queued request never granted after oversized release")
	}
	close(cancel)
}

// Every request is eventually admitted whatever its size, and the bytes in
// flight never pass the budget — except by the one oversize request that is
// running alone. The oversize row is the case internal/loadgen's model of
// this controller pins as TestOversizeRequestsRunSerially; both run
// wfq.Budget.
func TestAdmissionCompletesEveryRequest(t *testing.T) {
	for _, tc := range []struct {
		name          string
		budget, bytes int64
		requests      int
		peak          int64 // most bytes ever in flight
	}{
		{"small requests share the budget", 100, 10, 16, 100},
		{"a request of exactly the budget", 100, 100, 8, 100},
		{"oversize requests run one at a time", 10, 1000, 8, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			var peak atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < tc.requests; i++ {
				wg.Add(1)
				go func(tenant uint64) {
					defer wg.Done()
					release, err := c.Acquire(tenant, tc.bytes, nil)
					if err != nil {
						t.Error(err)
						return
					}
					for now := c.Stats().InFlightBytes; ; {
						if old := peak.Load(); now <= old || peak.CompareAndSwap(old, now) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					release()
				}(uint64(i % 3))
			}
			wg.Wait()
			st := c.Stats()
			if st.Admitted != uint64(tc.requests) || st.Shed != 0 || st.InFlightBytes != 0 || st.QueueDepth != 0 {
				t.Fatalf("after %d requests: %+v", tc.requests, st)
			}
			if got := peak.Load(); got > tc.peak {
				t.Fatalf("peak in flight %d bytes, want at most %d", got, tc.peak)
			}
		})
	}
}

// TestAdmissionFairGrantOrder: tenants queue separately and share the budget
// equally, so a tenant arriving behind another's backlog is not served last
// the way one FIFO would serve it.
func TestAdmissionFairGrantOrder(t *testing.T) {
	c, _ := NewAdmissionController(AdmissionConfig{MaxInFlightBytes: 10})
	rel, err := c.Acquire(9, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Queue 6 budget-sized requests for tenant 1, then 2 for tenant 2, and
	// release one budget at a time to observe the grant order.
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	queue := func(tenant uint64, n, depth int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := c.Acquire(tenant, 10, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				r()
			}()
		}
		waitFor(t, func() bool { return c.Stats().QueueDepth == depth })
	}
	queue(1, 6, 6)
	queue(2, 2, 8)
	rel()
	wg.Wait()
	late := 0
	for _, tenant := range order[:4] {
		if tenant == 2 {
			late++
		}
	}
	if late != 2 {
		t.Fatalf("grant order %v: want both of tenant 2's requests among the first four", order)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerShedsUnderAdmissionPressure drives a live server whose
// admission budget is pinned full: of 8 pipelined fetches, exactly one may
// wait in the tenant's queue (bound 1) and the other 7 must come back as
// typed ErrServerBusy carrying the configured hint — while the session
// survives and the queued fetch completes once the budget frees.
func TestServerShedsUnderAdmissionPressure(t *testing.T) {
	st := testStore(t, 16)
	adm, err := NewAdmissionController(AdmissionConfig{
		MaxInFlightBytes:  st.TotalBytes() / 16,
		MaxQueuePerTenant: 1,
		RetryAfter:        35 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, dial := startServer(t, ServerConfig{
		Store:     st,
		Pipeline:  pipeline.DefaultStandard(),
		Cores:     2,
		Admission: adm,
	})
	c := dial()

	// Pin the whole budget from outside so every fetch finds it exhausted.
	release, err := adm.Acquire(99, st.TotalBytes(), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var ok, busy atomic.Int64
	var sawHint atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := FetchOne(ctx, c, uint32(i%16), 0, 1)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrServerBusy):
				busy.Add(1)
				var ra *RetryAfterError
				if errors.As(err, &ra) && ra.Delay == 35*time.Millisecond {
					sawHint.Add(1)
				}
			default:
				t.Errorf("fetch %d: %v", i, err)
			}
		}(i)
	}
	// Exactly one fetch parks in the tenant queue; the other 7 shed.
	waitFor(t, func() bool { return adm.Stats().Shed == 7 })
	release()
	wg.Wait()

	if ok.Load() != 1 || busy.Load() != 7 {
		t.Fatalf("ok=%d busy=%d, want 1/7", ok.Load(), busy.Load())
	}
	if sawHint.Load() != busy.Load() {
		t.Fatalf("%d busy errors but %d carried the 35ms hint", busy.Load(), sawHint.Load())
	}
	if got := srv.Counters().ShedLoad.Load(); got != 7 {
		t.Fatalf("server ShedLoad = %d, want 7", got)
	}
	// The session is still healthy: a subsequent serial fetch succeeds.
	if _, err := FetchOne(ctx, c, 3, 0, 2); err != nil {
		t.Fatalf("post-shed fetch on same session: %v", err)
	}
}

// TestReconnectingClientHonorsRetryAfter: a shed fetch retried through the
// reconnecting wrapper must succeed WITHOUT a reconnect, and must wait at
// least the server's hint before the retry.
func TestReconnectingClientHonorsRetryAfter(t *testing.T) {
	st := testStore(t, 4)
	adm, err := NewAdmissionController(AdmissionConfig{
		MaxInFlightBytes:  1,
		MaxQueuePerTenant: 1,
		RetryAfter:        30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, dial := startServer(t, ServerConfig{
		Store:     st,
		Pipeline:  pipeline.DefaultStandard(),
		Cores:     1,
		Admission: adm,
	})
	base := dial()
	// Occupy the whole budget so the wrapper's first attempt is shed, then
	// free it during the backoff window.
	release, err := adm.Acquire(99, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocker := make(chan struct{})
	go func() {
		// Keep tenant 42's queue full so the wrapper sheds instead of queueing.
		if r, err := adm.Acquire(42, 1, blocker); err == nil {
			r()
		}
	}()
	waitFor(t, func() bool { return adm.Stats().QueueDepth == 1 })

	rc, err := NewReconnectingWithPolicy(func() (*Client, error) {
		return base, nil
	}, RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: -1}, simclock.Real())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(blocker)
		release()
	}()
	start := time.Now()
	if _, err := FetchOne(context.Background(), rc, 1, 0, 1); err != nil {
		t.Fatalf("fetch through retry wrapper: %v", err)
	}
	if rc.Retries() != 0 {
		t.Fatalf("wrapper reconnected %d times on a healthy session", rc.Retries())
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("retry after %v, want >= server hint 30ms", elapsed)
	}
}
