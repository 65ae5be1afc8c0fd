package trainsim

import (
	"testing"

	"repro/internal/policy"
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
