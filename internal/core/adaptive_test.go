package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/profiler"
)

// reshapeAt returns an env schedule that degrades the link to degraded
// bytes/sec starting at epoch from.
func reshapeAt(base policy.Env, from uint64, degraded float64) func(uint64) policy.Env {
	return func(epoch uint64) policy.Env {
		env := base
		if epoch >= from {
			env.Bandwidth = degraded
		}
		return env
	}
}

// TestAdaptiveReplanOnReshape is the PR's acceptance test at the model
// tier: the link is reshaped 500→250 Mbps after epoch 2; the adaptive
// controller must replan within one epoch boundary of observing the
// degradation, its post-replan epochs must land within 10% of an oracle
// plan computed directly for the degraded link, and the static plan must be
// measurably worse.
func TestAdaptiveReplanOnReshape(t *testing.T) {
	tr := openImages(t, 2000)
	// A scarce storage-CPU budget makes the optimal plan genuinely
	// bandwidth-dependent: the greedy offloader stops where TNet crosses
	// TCS, and that crossover moves when the link is reshaped. (With
	// plentiful storage cores every beneficial sample offloads at any
	// bandwidth and static == adaptive by construction.)
	env := paperEnv(2)           // 500 Mbps, 2 storage cores
	degraded := netsim.Mbps(250) // reshaped link
	drift := profiler.DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 1}
	const epochs = 6

	cfg := SimConfig{
		Trace:    tr,
		Env:      env,
		Epochs:   epochs,
		EnvAt:    reshapeAt(env, 3, degraded),
		Adaptive: true,
		Drift:    drift,
	}
	adaptive, err := RunAdaptiveSim(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Replan within one epoch boundary: epoch 3 is the first degraded
	// epoch, so the new plan must govern from epoch 4.
	if len(adaptive.History) != 2 {
		t.Fatalf("replan history: %v", adaptive.History)
	}
	replan := adaptive.History[1]
	if replan.Epoch != 4 || replan.Version != 2 || replan.Reason != "bandwidth-drift" {
		t.Fatalf("replan event %v", replan)
	}
	// Measured bandwidth is quantized by per-transfer durations, so allow
	// a sliver of float error around the true degraded rate.
	if rel := math.Abs(replan.Bandwidth-degraded) / degraded; rel > 1e-6 {
		t.Fatalf("replanned for %v B/s, want ~%v", replan.Bandwidth, degraded)
	}
	for _, e := range adaptive.Epochs {
		wantV := PlanVersion(1)
		if e.Epoch >= 4 {
			wantV = 2
		}
		if e.PlanVersion != wantV {
			t.Fatalf("epoch %d ran plan v%d, want v%d", e.Epoch, e.PlanVersion, wantV)
		}
	}

	// Oracle: plan computed directly for the degraded link, simulated on it.
	envDeg := env
	envDeg.Bandwidth = degraded
	oracleDecision, err := New().Decide(tr, envDeg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := engine.Run(engine.Config{Trace: tr, Plan: oracleDecision.Plan, Env: envDeg})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range adaptive.Epochs[3:] { // post-replan epochs 4..6
		ratio := float64(e.EpochTime) / float64(oracle.EpochTime)
		if ratio > 1.10 {
			t.Fatalf("adaptive epoch %d time %v is %.0f%% above oracle %v",
				e.Epoch, e.EpochTime, (ratio-1)*100, oracle.EpochTime)
		}
	}

	// Static baseline over the same schedule: measurably worse once the
	// link degrades.
	staticCfg := cfg
	staticCfg.Adaptive = false
	static, err := RunAdaptiveSim(staticCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(static.History) != 1 {
		t.Fatalf("static run replanned: %v", static.History)
	}
	for i := 3; i < epochs; i++ { // epochs 4..6: both degraded, adaptive replanned
		s, a := static.Epochs[i].EpochTime, adaptive.Epochs[i].EpochTime
		if float64(s) < 1.05*float64(a) {
			t.Fatalf("epoch %d: static %v not measurably worse than adaptive %v", i+1, s, a)
		}
	}

	// Same-seed determinism: identical replan histories (version, epoch,
	// reason, timestamps under the virtual clock) and epoch series.
	rerun, err := RunAdaptiveSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adaptive.History, rerun.History) {
		t.Fatalf("histories diverged:\n%v\n%v", adaptive.History, rerun.History)
	}
	if !reflect.DeepEqual(adaptive.Epochs, rerun.Epochs) {
		t.Fatal("epoch series diverged between same-seed runs")
	}
}

// TestAdaptiveSimValidation covers config rejection.
func TestAdaptiveSimValidation(t *testing.T) {
	tr := openImages(t, 50)
	if _, err := RunAdaptiveSim(SimConfig{Trace: tr, Env: paperEnv(4)}); err == nil {
		t.Fatal("accepted 0 epochs")
	}
	if _, err := RunAdaptiveSim(SimConfig{Env: paperEnv(4), Epochs: 2}); err == nil {
		t.Fatal("accepted nil trace")
	}
}
