package profiler

import (
	"testing"
)

func mixTelemetry(t *testing.T, cfg DriftConfig) *Telemetry {
	t.Helper()
	tel, err := NewTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tel
}

// TestMixThresholdNormalization: the mix threshold is the one constant
// defaultDriftMixThreshold, whatever the config: a shift just under it stays
// in band and a shift just over it drifts.
func TestMixThresholdNormalization(t *testing.T) {
	for _, c := range []struct {
		heavy int
		drift bool
	}{{14, false}, {16, true}} {
		tel := mixTelemetry(t, DriftConfig{Alpha: 1, Hysteresis: 1})
		tel.RebaseMix(0)
		drifts := tel.ObserveEpoch(EpochSample{Epoch: 1, MixHeavy: c.heavy, MixTotal: 100})
		if got := len(drifts) == 1; got != c.drift {
			t.Errorf("shift 0 → %d%% against threshold %v: drifts %v", c.heavy, defaultDriftMixThreshold, drifts)
		}
	}
}

// TestMixDriftFromZeroBaseline: the reason the mix test is absolute — a plan
// built on an all-light profile (baseline 0) must still detect a skew flip.
// A relative threshold against 0 could never fire.
func TestMixDriftFromZeroBaseline(t *testing.T) {
	tel := mixTelemetry(t, DriftConfig{Alpha: 1, Hysteresis: 2})
	tel.RebaseMix(0)

	// Epoch 1: heavy mix appears; over threshold but under hysteresis.
	if drifts := tel.ObserveEpoch(EpochSample{Epoch: 1, MixHeavy: 60, MixTotal: 100}); len(drifts) != 0 {
		t.Fatalf("drift on first over-threshold epoch: %v", drifts)
	}
	// Epoch 2: sustained — the mix drift fires.
	drifts := tel.ObserveEpoch(EpochSample{Epoch: 2, MixHeavy: 60, MixTotal: 100})
	if len(drifts) != 1 || drifts[0].Kind != driftMix {
		t.Fatalf("drifts = %v, want one mix-drift", drifts)
	}
	if drifts[0].Baseline != 0 || drifts[0].Current != 0.6 {
		t.Fatalf("mix drift %v, want 0→0.6", drifts[0])
	}
	if got := drifts[0].Kind.String(); got != "mix-drift" {
		t.Fatalf("kind string %q", got)
	}
}

func TestMixStreakResetsUnderThreshold(t *testing.T) {
	tel := mixTelemetry(t, DriftConfig{Alpha: 1, Hysteresis: 2})
	tel.RebaseMix(0.1)
	tel.ObserveEpoch(EpochSample{Epoch: 1, MixHeavy: 50, MixTotal: 100}) // streak 1
	tel.ObserveEpoch(EpochSample{Epoch: 2, MixHeavy: 10, MixTotal: 100}) // back in band
	if tel.mixStreak != 0 {
		t.Fatalf("streak %d after in-band epoch", tel.mixStreak)
	}
	// And a later excursion has to re-earn the hysteresis.
	if drifts := tel.ObserveEpoch(EpochSample{Epoch: 3, MixHeavy: 50, MixTotal: 100}); len(drifts) != 0 {
		t.Fatalf("drift without sustained streak: %v", drifts)
	}
}

// TestAdoptMixBaseline: after a replan adopts the shifted mix, the same skew
// no longer counts as drift — no replan storm under a persistent flip.
func TestAdoptMixBaseline(t *testing.T) {
	tel := mixTelemetry(t, DriftConfig{Alpha: 1, Hysteresis: 1})
	tel.RebaseMix(0)
	drifts := tel.ObserveEpoch(EpochSample{Epoch: 1, MixHeavy: 70, MixTotal: 100})
	if len(drifts) != 1 {
		t.Fatalf("drifts = %v, want the flip detected", drifts)
	}
	tel.AdoptMixBaseline()
	if tel.mixBaseline != 0.7 || tel.mixStreak != 0 {
		t.Fatalf("adopted baseline %v streak %d", tel.mixBaseline, tel.mixStreak)
	}
	if drifts := tel.ObserveEpoch(EpochSample{Epoch: 2, MixHeavy: 70, MixTotal: 100}); len(drifts) != 0 {
		t.Fatalf("persistent flip re-triggered after adoption: %v", drifts)
	}
}

func TestMixObservationGuards(t *testing.T) {
	tel := mixTelemetry(t, DriftConfig{Alpha: 1, Hysteresis: 1})
	tel.RebaseMix(0)
	// Unmeasured or malformed mixes leave the track untouched.
	tel.ObserveEpoch(EpochSample{Epoch: 1})
	tel.ObserveEpoch(EpochSample{Epoch: 2, MixHeavy: 5, MixTotal: 0})
	tel.ObserveEpoch(EpochSample{Epoch: 3, MixHeavy: 9, MixTotal: 4})
	tel.ObserveEpoch(EpochSample{Epoch: 4, MixHeavy: -1, MixTotal: 4})
	if tel.mix.value != 0 || tel.mixStreak != 0 {
		t.Fatalf("malformed mixes moved the track: heavy %v streak %d", tel.mix.value, tel.mixStreak)
	}
	// AdoptMixBaseline before any observation is a no-op on the baseline.
	tel2 := mixTelemetry(t, DriftConfig{})
	tel2.RebaseMix(0.3)
	tel2.AdoptMixBaseline()
	if tel2.mixBaseline != 0.3 {
		t.Fatalf("unready adoption overwrote baseline: %v", tel2.mixBaseline)
	}
	// Negative rebase values are ignored; the streak still clears.
	tel2.RebaseMix(-1)
	if tel2.mixBaseline != 0.3 {
		t.Fatalf("negative rebase overwrote baseline: %v", tel2.mixBaseline)
	}
	// Rebase (plan publish) clears the mix streak as well.
	tel3 := mixTelemetry(t, DriftConfig{Alpha: 1, Hysteresis: 3})
	tel3.RebaseMix(0)
	tel3.ObserveEpoch(EpochSample{Epoch: 1, MixHeavy: 50, MixTotal: 100})
	tel3.Rebase(0, 0)
	if tel3.mixStreak != 0 {
		t.Fatalf("Rebase left mix streak %d", tel3.mixStreak)
	}
}
