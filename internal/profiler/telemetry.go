package profiler

import (
	"fmt"
	"math"
	"sync"
)

// Streaming telemetry: SOPHON's stage-2 profiler measures the environment
// once, during epoch 1, and the plan is frozen against that snapshot. The
// Telemetry type extends stage 2 into a per-epoch stream of the one input a
// replan reads from it — the link bandwidth, smoothed by an EWMA — and flags
// drift against the bandwidth the current plan was computed for. A
// relative-change threshold with hysteresis keeps measurement noise from
// thrashing the plan.
//
// Telemetry is epoch-indexed, never wall-clock-driven: all its state
// advances only through ObserveEpoch, so the adaptive controller is
// deterministic under the virtual clock.

// EpochSample is one epoch's measured environment, produced by whichever
// layer ran the epoch (the live trainer's bandwidth probe, the DES from its
// Result).
type EpochSample struct {
	Epoch uint64
	// Bandwidth is the measured link throughput in bytes/second; 0 means
	// not measured this epoch and leaves the stream untouched.
	Bandwidth float64
}

// Drift is a sustained deviation of the smoothed link bandwidth from the
// baseline the current plan was computed against.
type Drift struct {
	Epoch uint64
	// Baseline and Current are the plan-time and smoothed live bandwidths
	// (bytes/second).
	Baseline float64
	Current  float64
}

// String renders the drift for logs.
func (d Drift) String() string {
	return fmt.Sprintf("bandwidth-drift@epoch%d(%.3g→%.3g)", d.Epoch, d.Baseline, d.Current)
}

// DriftConfig tunes detection. The zero value resolves to defaults.
type DriftConfig struct {
	// Alpha is the EWMA smoothing factor in (0, 1]: higher alpha tracks
	// changes faster, lower alpha smooths harder (0 → 0.5).
	Alpha float64
	// RelThreshold is the relative change versus baseline that counts as
	// drift, e.g. 0.2 = 20% (0 → 0.2).
	RelThreshold float64
	// Hysteresis is how many consecutive over-threshold epochs the
	// bandwidth must sustain before drift is signaled (0 → 2, 1 = signal on
	// the first over-threshold epoch).
	Hysteresis int
}

// Defaults for DriftConfig zero fields.
const (
	defaultDriftAlpha        = 0.5
	defaultDriftRelThreshold = 0.2
	defaultDriftHysteresis   = 2
)

// normalized resolves zero fields to defaults.
func (c DriftConfig) normalized() (DriftConfig, error) {
	if c.Alpha == 0 {
		c.Alpha = defaultDriftAlpha
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return c, fmt.Errorf("profiler: drift alpha %v outside (0, 1]", c.Alpha)
	}
	if c.RelThreshold == 0 {
		c.RelThreshold = defaultDriftRelThreshold
	}
	if !(c.RelThreshold > 0) || math.IsInf(c.RelThreshold, 0) {
		return c, fmt.Errorf("profiler: drift threshold %v must be positive and finite", c.RelThreshold)
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = defaultDriftHysteresis
	}
	if c.Hysteresis < 1 {
		return c, fmt.Errorf("profiler: hysteresis %d < 1", c.Hysteresis)
	}
	return c, nil
}

// Telemetry accumulates the per-epoch measurement stream and detects drift
// against the current plan's baseline. Safe for concurrent use.
type Telemetry struct {
	cfg DriftConfig

	mu sync.Mutex
	// bandwidth is the EWMA of the measured link rate; the first
	// measurement initializes it rather than decaying from zero.
	bandwidth float64
	baseline  float64 // the plan's bandwidth; 0 until the first Rebase
	streak    int     // consecutive over-threshold epochs
}

// NewTelemetry builds a telemetry stream with cfg (zero fields default).
func NewTelemetry(cfg DriftConfig) (*Telemetry, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &Telemetry{cfg: cfg}, nil
}

// Rebase records the bandwidth the (re)computed plan assumes and clears the
// drift streak: subsequent drift is measured against it. A bandwidth of 0
// keeps the previous baseline. The controller calls this whenever it
// publishes a plan.
func (t *Telemetry) Rebase(bandwidth float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.streak = 0
	if bandwidth > 0 {
		t.baseline = bandwidth
	}
}

// ObserveEpoch folds one epoch's measurement into the stream and returns
// the drift if the bandwidth crossed its gate this epoch (nil while it still
// matches the plan). While a sustained drift persists un-replanned it is
// re-reported every epoch; the controller's Rebase after replanning clears
// the streak.
func (t *Telemetry) ObserveEpoch(s EpochSample) *Drift {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := s.Bandwidth
	if bw <= 0 {
		return nil
	}
	if t.bandwidth == 0 {
		t.bandwidth = bw
	} else {
		t.bandwidth = t.cfg.Alpha*bw + (1-t.cfg.Alpha)*t.bandwidth
	}
	switch {
	case t.baseline <= 0: // no baseline yet: nothing to drift from
	case math.Abs(t.bandwidth-t.baseline)/t.baseline < t.cfg.RelThreshold:
		t.streak = 0
	default:
		t.streak++
		if t.streak >= t.cfg.Hysteresis {
			return &Drift{Epoch: s.Epoch, Baseline: t.baseline, Current: t.bandwidth}
		}
	}
	return nil
}

// Bandwidth returns the smoothed link bandwidth (bytes/second; 0 before any
// measurement).
func (t *Telemetry) Bandwidth() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bandwidth
}
