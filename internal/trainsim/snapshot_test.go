package trainsim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
)

// TestRunEpochSnapshotThreadsPlanVersion runs consecutive epochs under two
// plan snapshots — a control-plane swap — and verifies the version reaches
// both ends: the epoch report records it, and the server's high-water mark
// ratchets because every fetch carried the stamp on the wire.
func TestRunEpochSnapshotThreadsPlanVersion(t *testing.T) {
	h := newHarness(t, 24, 4)
	tr := newTrainer(t, h.config())

	noOff, err := policy.NewUniformPlan("v1", 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	offload, err := policy.NewUniformPlan("v2", 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	env := policy.Env{}

	r1, err := tr.RunEpochSnapshot(1, &policy.PlanSnapshot{
		Version: 1, Plan: noOff, Env: env, Epoch: 1, Reason: "initial",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanVersion != 1 || r1.Samples != 24 {
		t.Fatalf("epoch 1 report: version %d, samples %d", r1.PlanVersion, r1.Samples)
	}
	if v := h.server.Counters().PlanVersion.Load(); v != 1 {
		t.Fatalf("server saw plan version %d after epoch 1, want 1", v)
	}

	// The replanned snapshot governs epoch 2: the new stamp must ratchet the
	// server mark, and the new plan's offloading must take effect.
	r2, err := tr.RunEpochSnapshot(2, &policy.PlanSnapshot{
		Version: 2, Plan: offload, Env: env, Epoch: 2, Reason: "bandwidth-drift",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.PlanVersion != 2 || r2.Offloaded != 24 {
		t.Fatalf("epoch 2 report: version %d, offloaded %d", r2.PlanVersion, r2.Offloaded)
	}
	if v := h.server.Counters().PlanVersion.Load(); v != 2 {
		t.Fatalf("server saw plan version %d after epoch 2, want 2", v)
	}
	if reg := h.server.Counters().PlanRegressions.Load(); reg != 0 {
		t.Fatalf("monotone swap counted %d regressions", reg)
	}

	// Bare-plan epochs are unversioned in the report and on the wire: the
	// stamp belongs to the request, so no session state outlives the
	// snapshot. With the server's mark pushed past 2, a leftover stamp would
	// count one regression per fetch.
	h.server.Counters().ObservePlanVersion(5)
	r3, err := tr.RunEpoch(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3.PlanVersion != 0 {
		t.Fatalf("bare RunEpoch reported version %d", r3.PlanVersion)
	}
	if reg := h.server.Counters().PlanRegressions.Load(); reg != 0 {
		t.Fatalf("bare RunEpoch sent %d stamped fetches", reg)
	}

	if _, err := tr.RunEpochSnapshot(4, nil, nil); err == nil {
		t.Fatal("accepted nil snapshot")
	}
}

// firstFetchHook runs hook once, just before the session's first round trip
// goes down (its context, and so its stamp, is already built).
type firstFetchHook struct {
	storage.Fetcher
	once sync.Once
	hook func()
}

func (c *firstFetchHook) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	c.once.Do(c.hook)
	return c.Fetcher.FetchBatch(ctx, samples, splits, epoch)
}

// TestApplySnapshotMidEpochDefaultConfig: cuts are read at issue time under
// the zero loader config too. A snapshot applied while the epoch's first
// fetch is on its way rotates every entry not yet issued — all but the at
// most Lookahead (2×Workers) already claimed — although the epoch was
// started with no plan at all. The stamp rotates with the cuts: round trips
// issued after the swap carry the new version, the ones before it none. The
// server's mark starts above the snapshot's version so each stamped round
// trip counts one regression.
func TestApplySnapshotMidEpochDefaultConfig(t *testing.T) {
	const n = 40
	h := newHarness(t, n, 4)
	offload, err := policy.NewUniformPlan("v2", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tr *Trainer
	cfg := h.config()
	dial := cfg.DialClient
	cfg.DialClient = func() (storage.Fetcher, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &firstFetchHook{Fetcher: c, hook: func() {
			tr.ApplySnapshot(&policy.PlanSnapshot{Version: 2, Plan: offload, Epoch: 1, Reason: "mid-epoch"})
		}}, nil
	}
	tr = newTrainer(t, cfg)
	h.server.Counters().ObservePlanVersion(9)
	r, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	depth := 2 * cfg.Workers
	if r.Samples != n || r.Offloaded >= n || r.Offloaded < n-depth {
		t.Fatalf("offloaded %d of %d trained samples, want all but the 1..%d entries issued before the rotation",
			r.Offloaded, r.Samples, depth)
	}
	// One sample a round trip here. A round trip reads its stamp after its
	// cuts, so every offloaded one is stamped; the first is not.
	if stamped := int(h.server.Counters().PlanRegressions.Load()); stamped >= n || stamped < r.Offloaded {
		t.Fatalf("%d of %d round trips carried the rotated version, %d were offloaded", stamped, n, r.Offloaded)
	}
}
