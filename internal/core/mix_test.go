package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/prepsched"
	"repro/internal/profiler"
	"repro/internal/simclock"
)

// TestControllerReplansOnMixDrift: a sustained heavy/light skew flip fed
// through EpochSample.MixHeavy/MixTotal replans with reason "mix-drift", and
// the adopted baseline stops the persistent flip from replanning again.
func TestControllerReplansOnMixDrift(t *testing.T) {
	tr := openImages(t, 500)
	env := paperEnv(48)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	c, err := NewController(ControllerConfig{
		Trace: tr, Env: env, Clock: clock,
		Drift: profiler.DriftConfig{Alpha: 1, Hysteresis: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := prepsched.FromTrace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := cl.BaselineHeavyFrac()

	sample := func(e uint64, heavy int) profiler.EpochSample {
		return profiler.EpochSample{Epoch: e, Bandwidth: env.Bandwidth, MixHeavy: heavy, MixTotal: 100}
	}
	// Epoch 1 at baseline, epochs 2-3 flipped far past the threshold:
	// hysteresis 2 fires at epoch 3.
	c.ObserveEpoch(sample(1, int(100*baseline)))
	if snap, _, _ := c.ObserveEpoch(sample(2, 90)); snap.Version != 1 {
		t.Fatalf("replanned before hysteresis: %v", snap)
	}
	snap, drifts, err := c.ObserveEpoch(sample(3, 90))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || !strings.Contains(snap.Reason, "mix-drift") {
		t.Fatalf("snapshot %v, want v2 with mix-drift reason", snap)
	}
	if len(drifts) != 1 || drifts[0].Kind.String() != "mix-drift" {
		t.Fatalf("drifts %v", drifts)
	}
	if drifts[0].Baseline != baseline {
		t.Fatalf("mix baseline %v, want the trace's %v", drifts[0].Baseline, baseline)
	}
	// The controller adopted the shifted mix: the same skew is steady state.
	for e := uint64(4); e <= 7; e++ {
		snap, drifts, err := c.ObserveEpoch(sample(e, 90))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != 2 || len(drifts) != 0 {
			t.Fatalf("epoch %d: persistent flip replanned again: %v %v", e, snap, drifts)
		}
	}
}

// TestControllerHeavyRatioValidation: a negative ratio is rejected rather
// than silently dropping the mix baseline.
func TestControllerHeavyRatioValidation(t *testing.T) {
	tr := openImages(t, 50)
	if _, err := NewController(ControllerConfig{Trace: tr, Env: paperEnv(48), HeavyRatio: -1}); err == nil {
		t.Fatal("negative heavy ratio accepted")
	}
	// A custom positive ratio re-anchors the baseline: the drift a skewed
	// epoch raises is measured from it.
	env := paperEnv(48)
	c, err := NewController(ControllerConfig{
		Trace: tr, Env: env, HeavyRatio: 1,
		Drift: profiler.DriftConfig{Alpha: 1, Hysteresis: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := prepsched.FromTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	heavy := 100
	if cl.BaselineHeavyFrac() > 0.5 {
		heavy = 0
	}
	_, drifts, err := c.ObserveEpoch(profiler.EpochSample{Epoch: 1, Bandwidth: env.Bandwidth, MixHeavy: heavy, MixTotal: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || drifts[0].Baseline != cl.BaselineHeavyFrac() {
		t.Fatalf("drifts %v at ratio 1, want one from baseline %v", drifts, cl.BaselineHeavyFrac())
	}
}
