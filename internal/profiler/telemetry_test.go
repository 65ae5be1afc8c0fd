package profiler

import (
	"math"
	"testing"
)

func newTestTelemetry(t *testing.T, cfg DriftConfig) *Telemetry {
	t.Helper()
	tel, err := NewTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tel
}

// TestEWMA: the first measurement initializes the average rather than
// decaying from zero, and an unmeasured (zero) epoch leaves it untouched.
func TestEWMA(t *testing.T) {
	tel := newTestTelemetry(t, DriftConfig{Alpha: 0.5})
	if got := tel.Bandwidth(); got != 0 {
		t.Fatalf("before any measurement: %v", got)
	}
	for i, c := range []struct{ bw, want float64 }{
		{100, 100}, // first measurement initializes
		{0, 100},   // not measured: untouched
		{50, 75},
	} {
		tel.ObserveEpoch(EpochSample{Epoch: uint64(i + 1), Bandwidth: c.bw})
		if got := tel.Bandwidth(); got != c.want {
			t.Fatalf("after %v: %v, want %v", c.bw, got, c.want)
		}
	}
}

// TestDriftHysteresis drives the detector with per-epoch bandwidth
// measurements and checks exactly when (if ever) drift fires. Alpha 1
// removes smoothing so the table reasons about raw thresholds; the
// smoothing interaction is covered separately.
func TestDriftHysteresis(t *testing.T) {
	const base = 500e6 / 8 // 500 Mbps in bytes/sec
	cases := []struct {
		name       string
		cfg        DriftConfig
		bandwidth  []float64 // per-epoch measurements
		driftEpoch int       // 1-based epoch the first drift fires on; 0 = never
	}{
		{
			name:       "steady link never drifts",
			cfg:        DriftConfig{Alpha: 1},
			bandwidth:  []float64{base, base, base, base, base, base},
			driftEpoch: 0,
		},
		{
			name:       "sub-threshold noise never drifts",
			cfg:        DriftConfig{Alpha: 1, RelThreshold: 0.2},
			bandwidth:  []float64{base, 0.9 * base, 1.1 * base, 0.85 * base, 1.05 * base},
			driftEpoch: 0,
		},
		{
			name:       "single over-threshold blip is absorbed by hysteresis",
			cfg:        DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 2},
			bandwidth:  []float64{base, 0.5 * base, base, base, base},
			driftEpoch: 0,
		},
		{
			name:       "sustained halving drifts after hysteresis epochs",
			cfg:        DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 2},
			bandwidth:  []float64{base, 0.5 * base, 0.5 * base, 0.5 * base},
			driftEpoch: 3, // epochs 2 and 3 over threshold → streak reaches 2 at epoch 3
		},
		{
			name:       "hysteresis 1 fires on first over-threshold epoch",
			cfg:        DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 1},
			bandwidth:  []float64{base, 0.5 * base},
			driftEpoch: 2,
		},
		{
			name:       "streak resets when the link recovers",
			cfg:        DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 3},
			bandwidth:  []float64{base, 0.5 * base, 0.5 * base, base, 0.5 * base, 0.5 * base},
			driftEpoch: 0, // never three in a row
		},
		{
			name:      "smoothing delays detection of an abrupt halving",
			cfg:       DriftConfig{Alpha: 0.5, RelThreshold: 0.2, Hysteresis: 2},
			bandwidth: []float64{base, 0.5 * base, 0.5 * base, 0.5 * base},
			// EWMA after epoch 2: 0.75·base (25% off → streak 1); epoch 3:
			// 0.625·base (streak 2) → fires at epoch 3.
			driftEpoch: 3,
		},
		{
			name:       "upward drift detected symmetrically",
			cfg:        DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 2},
			bandwidth:  []float64{base, 2 * base, 2 * base},
			driftEpoch: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tel := newTestTelemetry(t, tc.cfg)
			tel.Rebase(base)
			fired := 0
			for i, bw := range tc.bandwidth {
				epoch := uint64(i + 1)
				if d := tel.ObserveEpoch(EpochSample{Epoch: epoch, Bandwidth: bw}); d != nil && fired == 0 {
					fired = i + 1
					if d.Epoch != epoch || d.Baseline != base || d.Current != tel.Bandwidth() {
						t.Fatalf("drift %v at epoch %d", d, epoch)
					}
				}
			}
			if fired != tc.driftEpoch {
				t.Fatalf("first drift at epoch %d, want %d", fired, tc.driftEpoch)
			}
		})
	}
}

// TestRebaseClearsStreaks: replanning resets detection against the new
// environment, so the same degraded-but-replanned-for link stops drifting.
func TestRebaseClearsStreaks(t *testing.T) {
	const base = 500e6 / 8
	tel := newTestTelemetry(t, DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 2})
	tel.Rebase(base)
	tel.ObserveEpoch(EpochSample{Epoch: 1, Bandwidth: 0.5 * base})
	if d := tel.ObserveEpoch(EpochSample{Epoch: 2, Bandwidth: 0.5 * base}); d == nil {
		t.Fatal("halving undetected")
	}
	// Controller replans for the degraded link and rebases.
	tel.Rebase(0.5 * base)
	for e := uint64(3); e <= 6; e++ {
		if d := tel.ObserveEpoch(EpochSample{Epoch: e, Bandwidth: 0.5 * base}); d != nil {
			t.Fatalf("epoch %d drifted after rebase: %v", e, d)
		}
	}
}

func TestDriftConfigValidation(t *testing.T) {
	if _, err := NewTelemetry(DriftConfig{Alpha: -1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := NewTelemetry(DriftConfig{RelThreshold: -0.1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := NewTelemetry(DriftConfig{Hysteresis: -2}); err == nil {
		t.Fatal("negative hysteresis accepted")
	}
	for _, bad := range []DriftConfig{
		{Alpha: 1.5},
		{Alpha: math.NaN()},
		{RelThreshold: math.NaN()},
		{RelThreshold: math.Inf(1)},
	} {
		if _, err := bad.normalized(); err == nil {
			t.Fatalf("drift config accepted: %+v", bad)
		}
	}
	cfg, err := DriftConfig{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != defaultDriftAlpha || cfg.RelThreshold != defaultDriftRelThreshold || cfg.Hysteresis != defaultDriftHysteresis {
		t.Fatalf("defaults %+v", cfg)
	}
}
