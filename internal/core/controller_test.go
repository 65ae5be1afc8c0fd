package core

import (
	"testing"
	"time"

	"repro/internal/profiler"
	"repro/internal/simclock"
)

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(ControllerConfig{Env: paperEnv(4)}); err == nil {
		t.Fatal("accepted nil trace")
	}
	bad := paperEnv(4)
	bad.ComputeCores = 0
	if _, err := NewController(ControllerConfig{Trace: openImages(t, 50), Env: bad}); err == nil {
		t.Fatal("accepted bad env")
	}
}

func TestControllerInitialPlan(t *testing.T) {
	tr := openImages(t, 500)
	c, err := NewController(ControllerConfig{Trace: tr, Env: paperEnv(48)})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Current()
	if snap.Version != 1 || snap.Reason != "initial" || snap.Epoch != 1 {
		t.Fatalf("initial snapshot %v", snap)
	}
	if snap.Plan.OffloadedCount() == 0 {
		t.Fatal("IO-bound workload planned no offloading")
	}
	h := c.History()
	if len(h) != 1 || h[0].Version != 1 || h[0].Reason != "initial" {
		t.Fatalf("history %v", h)
	}
}

func TestControllerSteadyStateNeverReplans(t *testing.T) {
	tr := openImages(t, 500)
	env := paperEnv(48)
	c, err := NewController(ControllerConfig{Trace: tr, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 8; e++ {
		snap, drifts, err := c.ObserveEpoch(profiler.EpochSample{Epoch: e, Bandwidth: env.Bandwidth})
		if err != nil {
			t.Fatal(err)
		}
		if len(drifts) != 0 || snap.Version != 1 {
			t.Fatalf("epoch %d replanned: %v %v", e, snap, drifts)
		}
	}
	if h := c.History(); len(h) != 1 {
		t.Fatalf("steady state grew history to %d", len(h))
	}
}

func TestControllerReplansOnSustainedBandwidthDrop(t *testing.T) {
	tr := openImages(t, 500)
	env := paperEnv(48)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	c, err := NewController(ControllerConfig{
		Trace: tr, Env: env, Clock: clock,
		Drift: profiler.DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	half := env.Bandwidth / 2
	// Epoch 1 healthy, epochs 2-3 halved: hysteresis 2 fires at epoch 3.
	c.ObserveEpoch(profiler.EpochSample{Epoch: 1, Bandwidth: env.Bandwidth})
	if snap, _, _ := c.ObserveEpoch(profiler.EpochSample{Epoch: 2, Bandwidth: half}); snap.Version != 1 {
		t.Fatalf("replanned before hysteresis: %v", snap)
	}
	clock.Advance(time.Minute)
	snap, drifts, err := c.ObserveEpoch(profiler.EpochSample{Epoch: 3, Bandwidth: half})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || len(drifts) != 1 {
		t.Fatalf("no replan at epoch 3: %v %v", snap, drifts)
	}
	if snap.Reason != "bandwidth-drift" {
		t.Fatalf("reason %q", snap.Reason)
	}
	if snap.Epoch != 4 {
		t.Fatalf("boundary replan effective epoch %d, want 4", snap.Epoch)
	}
	if snap.Env.Bandwidth != half {
		t.Fatalf("replanned env bandwidth %v, want %v", snap.Env.Bandwidth, half)
	}
	// The degraded-link plan offloads more aggressively than the original.
	orig := c.History()[0]
	if orig.Bandwidth <= snap.Env.Bandwidth {
		t.Fatalf("history bandwidths %v vs %v", orig.Bandwidth, snap.Env.Bandwidth)
	}
	h := c.History()
	if len(h) != 2 || h[1].Version != 2 || h[1].At != clock.Now() {
		t.Fatalf("history %v (now %v)", h, clock.Now())
	}
	if c.Current() != snap {
		t.Fatal("Current() is not the replanned snapshot")
	}
}

func TestControllerShardChangeReplansImmediately(t *testing.T) {
	tr := openImages(t, 500)
	env := paperEnv(8)
	env.Shards = 4
	c, err := NewController(ControllerConfig{Trace: tr, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the shard baseline at an epoch boundary.
	if _, drifts, _ := c.ObserveEpoch(profiler.EpochSample{
		Epoch: 1, Bandwidth: env.Bandwidth, ShardsUp: 4, Shards: 4,
	}); len(drifts) != 0 {
		t.Fatalf("baseline drifted: %v", drifts)
	}
	// A shard dies in epoch 2: replan at once, no hysteresis, effective at
	// the next boundary.
	snap, drifts, err := c.ObserveEpoch(profiler.EpochSample{
		Epoch: 2, Bandwidth: env.Bandwidth, ShardsUp: 3, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || drifts[0].Kind != profiler.DriftShard {
		t.Fatalf("shard loss drifts %v, want one shard change", drifts)
	}
	if snap.Version != 2 || snap.Epoch != 3 {
		t.Fatalf("shard-change replan snapshot %v", snap)
	}
	if snap.Reason != "shard-change" {
		t.Fatalf("reason %q", snap.Reason)
	}
	if snap.Env.Shards != 3 {
		t.Fatalf("replanned env shards %d, want 3", snap.Env.Shards)
	}
	// Reporting the same topology again is a no-op.
	again, _, err := c.ObserveEpoch(profiler.EpochSample{
		Epoch: 3, Bandwidth: env.Bandwidth, ShardsUp: 3, Shards: 4,
	})
	if err != nil || again.Version != 2 {
		t.Fatalf("no-change report replanned: %v %v", again, err)
	}
}
