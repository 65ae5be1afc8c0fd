package core

import (
	"fmt"
	"sync"
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
		snap, drift, err := c.ObserveEpoch(profiler.EpochSample{Epoch: e, Bandwidth: env.Bandwidth})
		if err != nil {
			t.Fatal(err)
		}
		if drift != nil || snap.Version != 1 {
			t.Fatalf("epoch %d replanned: %v %v", e, snap, drift)
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
	snap, drift, err := c.ObserveEpoch(profiler.EpochSample{Epoch: 3, Bandwidth: half})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || drift == nil {
		t.Fatalf("no replan at epoch 3: %v %v", snap, drift)
	}
	if snap.Reason != "bandwidth-drift" {
		t.Fatalf("reason %q", snap.Reason)
	}
	if snap.Epoch != 4 {
		t.Fatalf("boundary replan effective epoch %d, want 4", snap.Epoch)
	}
	// The replan assumed the measured, halved link.
	h := c.History()
	if len(h) != 2 || h[1].Version != 2 || h[1].At != clock.Now() {
		t.Fatalf("history %v (now %v)", h, clock.Now())
	}
	if h[0].Bandwidth != env.Bandwidth || h[1].Bandwidth != half {
		t.Fatalf("history bandwidths %v then %v, want %v then %v", h[0].Bandwidth, h[1].Bandwidth, env.Bandwidth, half)
	}
	if c.Current() != snap {
		t.Fatal("Current() is not the replanned snapshot")
	}
}

// TestControllerCurrentDuringReplan: readers call Current while
// ObserveEpoch drives a replan, each from before the replan starts until
// well after it shows. Every snapshot read is the whole v1 or the whole v2,
// and a reader that has seen v2 never sees v1 again. Run it under -race.
func TestControllerCurrentDuringReplan(t *testing.T) {
	env := paperEnv(48)
	c, err := NewController(ControllerConfig{
		Trace: openImages(t, 500), Env: env,
		Drift: profiler.DriftConfig{Alpha: 1, Hysteresis: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := c.Current()
	const readers, readsAfter = 4, 1000
	done := make(chan struct{}) // closed only if the replan fails
	errs := make(chan error, readers)
	var started, wg sync.WaitGroup
	for range readers {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			first, after := true, 0
			for after < readsAfter {
				s := c.Current()
				if first {
					started.Done()
					first = false
				}
				switch {
				case s == v1 && after == 0 && s.Version == 1 && s.Epoch == 1 && s.Reason == "initial":
				case s != v1 && s.Version == 2 && s.Epoch == 3 && s.Reason == "bandwidth-drift" && s.Plan != nil:
					after++
				default:
					errs <- fmt.Errorf("read %v after %d reads of v2", s, after)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	snap, drift, err := c.ObserveEpoch(profiler.EpochSample{Epoch: 2, Bandwidth: env.Bandwidth / 2})
	if err != nil || drift == nil || snap.Version != 2 {
		close(done)
		wg.Wait()
		t.Fatalf("replan: %v %v %v", snap, drift, err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Current() != snap {
		t.Fatal("Current() is not the replanned snapshot")
	}
}
