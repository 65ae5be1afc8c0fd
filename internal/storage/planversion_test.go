package storage

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// TestPlanVersionStamping verifies a fetch is stamped with the plan version
// its context carries and the server ratchets its high-water mark while
// counting regressions — the observability contract the adaptive control
// plane's mixed-version swap semantics rest on.
func TestPlanVersionStamping(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{
		Store:    testStore(t, 8),
		Pipeline: pipeline.DefaultStandard(),
		Cores:    2,
	})
	c := dial()
	ctx := context.Background()

	// Unversioned traffic leaves the counters untouched.
	if _, err := FetchOne(ctx, c, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v := srv.Counters().PlanVersion.Load(); v != 0 {
		t.Fatalf("unversioned fetch moved PlanVersion to %d", v)
	}

	if _, err := FetchOne(WithPlanVersion(ctx, 3), c, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if v := srv.Counters().PlanVersion.Load(); v != 3 {
		t.Fatalf("PlanVersion = %d, want 3", v)
	}

	// A batch stamped with a newer version ratchets the mark once.
	if _, err := c.FetchBatch(WithPlanVersion(ctx, 5), []uint32{2, 3}, []int{0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if v := srv.Counters().PlanVersion.Load(); v != 5 {
		t.Fatalf("PlanVersion after batch = %d, want 5", v)
	}
	if r := srv.Counters().PlanRegressions.Load(); r != 0 {
		t.Fatalf("regressions = %d before any stale traffic", r)
	}

	// Mixed-version traffic during a swap: an older stamp still serves the
	// fetch but counts as a regression. The stamp belongs to the request,
	// not the session: the unversioned fetch after it observes nothing.
	res, err := FetchOne(WithPlanVersion(ctx, 4), c, 4, 0, 1)
	if err != nil || res.Err != nil {
		t.Fatalf("stale-version fetch failed: %v / %v", err, res.Err)
	}
	if _, err := FetchOne(ctx, c, 5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v := srv.Counters().PlanVersion.Load(); v != 5 {
		t.Fatalf("regressed stamp moved the high-water mark to %d", v)
	}
	if r := srv.Counters().PlanRegressions.Load(); r != 1 {
		t.Fatalf("regressions = %d, want 1", r)
	}
}

// TestPlanVersionSurvivesRedial forces the retry layer to redial mid-stream.
// The server's mark is first ratcheted past the version under test, so every
// stamped round trip counts one regression and an unstamped one would count
// none: each fetch, on whichever session it lands, must move that counter.
func TestPlanVersionSurvivesRedial(t *testing.T) {
	st := testStore(t, 4)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	rc, err := NewReconnecting(flakyDialer(t, l, 40<<10), 5, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := FetchOne(WithPlanVersion(context.Background(), 9), rc, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	ctx := WithPlanVersion(context.Background(), 7)
	for k := 0; k < 40; k++ {
		before := srv.Counters().PlanRegressions.Load()
		if _, err := FetchOne(ctx, rc, uint32(k%4), 0, 1); err != nil {
			t.Fatalf("fetch %d: %v", k, err)
		}
		if after := srv.Counters().PlanRegressions.Load(); after == before {
			t.Fatalf("fetch %d (after %d redials) reached the server unstamped", k, rc.Retries())
		}
	}
	if rc.Retries() == 0 {
		t.Fatal("no reconnects despite flaky links")
	}
	if v := srv.Counters().PlanVersion.Load(); v != 9 {
		t.Fatalf("PlanVersion = %d, want 9", v)
	}
}

// TestCountersObservePlanVersion covers the ratchet in isolation.
func TestCountersObservePlanVersion(t *testing.T) {
	var c Counters
	c.ObservePlanVersion(0)
	if c.PlanVersion.Load() != 0 || c.PlanRegressions.Load() != 0 {
		t.Fatal("version 0 must be ignored")
	}
	c.ObservePlanVersion(2)
	c.ObservePlanVersion(2) // equal is not a regression
	c.ObservePlanVersion(1) // older is
	c.ObservePlanVersion(7)
	if v := c.PlanVersion.Load(); v != 7 {
		t.Fatalf("PlanVersion = %d, want 7", v)
	}
	if r := c.PlanRegressions.Load(); r != 1 {
		t.Fatalf("PlanRegressions = %d, want 1", r)
	}
}
