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
		Drift: profiler.DriftConfig{Alpha: 1, MixThreshold: 0.25, Hysteresis: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := c.tel.Snapshot().MixBaseline
	cl, err := prepsched.FromTrace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if baseline != cl.BaselineHeavyFrac() {
		t.Fatalf("mix baseline %v, want the trace's %v", baseline, cl.BaselineHeavyFrac())
	}

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
	if len(drifts) != 1 || drifts[0].Kind != profiler.DriftMix {
		t.Fatalf("drifts %v", drifts)
	}
	// The controller adopted the shifted mix: the same skew is steady state.
	if got := c.tel.Snapshot().MixBaseline; got != 0.9 {
		t.Fatalf("adopted mix baseline %v, want 0.9", got)
	}
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
	// A custom positive ratio re-anchors the baseline.
	c, err := NewController(ControllerConfig{Trace: tr, Env: paperEnv(48), HeavyRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := prepsched.FromTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.tel.Snapshot().MixBaseline; got != cl.BaselineHeavyFrac() {
		t.Fatalf("baseline %v at ratio 1, want %v", got, cl.BaselineHeavyFrac())
	}
}
