package profiler

import (
	"fmt"
	"math"
	"sync"
)

// Streaming telemetry: SOPHON's stage-2 profiler measures the environment
// once, during epoch 1, and the plan is frozen against that snapshot. The
// Telemetry type extends stage 2 into a per-epoch stream — every epoch
// contributes a measurement of link bandwidth, storage-CPU occupancy,
// per-sample op time, and shard health, smoothed by EWMAs — and flags drift
// against the environment the current plan was computed for. Relative-change
// thresholds with hysteresis keep measurement noise from thrashing the plan;
// shard topology changes bypass hysteresis because a lost shard invalidates
// placement immediately, not after it has been dead for N epochs.
//
// Telemetry is epoch-indexed, never wall-clock-driven: all its state
// advances only through ObserveEpoch, so the adaptive controller is
// deterministic under the virtual clock.

// ewma is an exponentially weighted moving average. The zero value is
// unusable; construct with newEWMA. The first observation initializes the
// average rather than decaying from zero.
type ewma struct {
	alpha float64
	value float64
	ready bool
}

// newEWMA builds an average with smoothing factor alpha in (0, 1]: higher
// alpha tracks changes faster, lower alpha smooths harder.
func newEWMA(alpha float64) (*ewma, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("profiler: EWMA alpha %v outside (0, 1]", alpha)
	}
	return &ewma{alpha: alpha}, nil
}

// observe folds one measurement into the average.
func (e *ewma) observe(v float64) {
	if !e.ready {
		e.value, e.ready = v, true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// EpochSample is one epoch's measured environment, produced by whichever
// layer ran the epoch (the live trainer from EpochReport accounting, the DES
// from its Result). Zero-valued metrics mean "not measured this epoch" and
// leave the corresponding EWMA untouched.
type EpochSample struct {
	Epoch uint64
	// Bandwidth is the measured link throughput in bytes/second.
	Bandwidth float64
	// StorageOccupancy is the storage-tier CPU occupancy fraction:
	// storage-CPU-seconds consumed per wall-second, normalized by the core
	// budget, so 1.0 means the offload budget is saturated.
	StorageOccupancy float64
	// ShardsUp counts reachable shards out of Shards; Shards 0 means shard
	// health was not measured this epoch.
	ShardsUp, Shards int
	// MixHeavy / MixTotal is the epoch's observed heavy/light preprocessing
	// mix (the variance-aware scheduler's class counts — EpochReport.Heavy
	// over Samples). MixTotal 0 means the mix was not measured this epoch.
	// Unlike the other metrics, a measured heavy fraction of zero is a valid
	// observation: an all-light epoch is exactly how a skew flip ends.
	MixHeavy, MixTotal int
}

// DriftKind classifies what moved away from the plan's environment.
type DriftKind int

// Drift kinds.
const (
	driftBandwidth DriftKind = iota
	driftStorageCPU
	DriftShard
	driftMix
)

// String names the drift kind; the controller uses it in replan reasons.
func (k DriftKind) String() string {
	switch k {
	case driftBandwidth:
		return "bandwidth-drift"
	case driftStorageCPU:
		return "storage-cpu-drift"
	case DriftShard:
		return "shard-change"
	case driftMix:
		return "mix-drift"
	default:
		return fmt.Sprintf("drift(%d)", int(k))
	}
}

// Drift is one detected deviation between the smoothed measurements and the
// baseline the current plan was computed against.
type Drift struct {
	Kind  DriftKind
	Epoch uint64
	// Baseline and Current are the metric's plan-time and smoothed live
	// values (for DriftShard: shard counts).
	Baseline float64
	Current  float64
}

// String renders the drift for logs and replan histories.
func (d Drift) String() string {
	return fmt.Sprintf("%s@epoch%d(%.3g→%.3g)", d.Kind, d.Epoch, d.Baseline, d.Current)
}

// DriftConfig tunes detection. The zero value resolves to defaults.
type DriftConfig struct {
	// Alpha is the EWMA smoothing factor (0 → 0.5).
	Alpha float64
	// RelThreshold is the relative change versus baseline that counts as
	// drift, e.g. 0.2 = 20% (0 → 0.2).
	RelThreshold float64
	// Hysteresis is how many consecutive over-threshold epochs a metric
	// must sustain before drift is signaled (0 → 2, 1 = signal on the
	// first over-threshold epoch). Shard changes ignore hysteresis.
	Hysteresis int
}

// Defaults for DriftConfig zero fields.
const (
	defaultDriftAlpha        = 0.5
	defaultDriftRelThreshold = 0.2
	defaultDriftHysteresis   = 2
)

// defaultDriftMixThreshold is the ABSOLUTE heavy-fraction change versus
// baseline that counts as mix drift: fifteen percentage points. Absolute,
// not relative, because the baseline mix is often 0 — a dataset with no
// heavy samples at plan time — and any relative measure against 0 is
// meaningless.
const defaultDriftMixThreshold = 0.15

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

// metricTrack is one metric's smoothed stream plus its drift state.
type metricTrack struct {
	kind     DriftKind
	ewma     *ewma
	baseline float64
	streak   int // consecutive over-threshold epochs
}

// observe folds v in and reports whether the smoothed value has now been
// over threshold for hysteresis consecutive epochs.
func (m *metricTrack) observe(v float64, cfg DriftConfig) bool {
	m.ewma.observe(v)
	if m.baseline <= 0 {
		return false // no baseline yet: nothing to drift from
	}
	rel := math.Abs(m.ewma.value-m.baseline) / m.baseline
	if rel < cfg.RelThreshold {
		m.streak = 0
		return false
	}
	m.streak++
	return m.streak >= cfg.Hysteresis
}

// Telemetry accumulates the per-epoch measurement stream and detects drift
// against the current plan's baseline. Safe for concurrent use.
type Telemetry struct {
	cfg DriftConfig

	mu        sync.Mutex
	bandwidth metricTrack
	occupancy metricTrack
	shardsUp  int // -1 until first measured
	// The heavy/light mix track. It cannot share metricTrack: its drift
	// test is absolute (a 0 baseline is legitimate) and its baseline is set
	// explicitly, not inferred from positivity.
	mix          *ewma
	mixBaseline  float64
	mixBaselined bool
	mixStreak    int
}

// NewTelemetry builds a telemetry stream with cfg (zero fields default).
func NewTelemetry(cfg DriftConfig) (*Telemetry, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	t := &Telemetry{cfg: cfg, shardsUp: -1}
	for _, m := range []struct {
		track *metricTrack
		kind  DriftKind
	}{
		{&t.bandwidth, driftBandwidth},
		{&t.occupancy, driftStorageCPU},
	} {
		e, err := newEWMA(cfg.Alpha)
		if err != nil {
			return nil, err
		}
		*m.track = metricTrack{kind: m.kind, ewma: e}
	}
	mixEWMA, err := newEWMA(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	t.mix = mixEWMA
	return t, nil
}

// Rebase records the environment the (re)computed plan assumes, resetting
// every drift streak: subsequent drift is measured against these values.
// Zero-valued fields keep the previous baseline for that metric. The
// controller calls this whenever it publishes a plan.
func (t *Telemetry) Rebase(bandwidth, occupancy float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bandwidth.streak = 0
	t.occupancy.streak = 0
	t.mixStreak = 0
	if bandwidth > 0 {
		t.bandwidth.baseline = bandwidth
	}
	if occupancy > 0 {
		t.occupancy.baseline = occupancy
	}
}

// RebaseMix anchors the mix drift track to an explicit plan-time heavy
// fraction (the classifier's BaselineHeavyFrac), clearing the streak. A
// fraction of 0 is a real baseline — a profile with no heavy samples —
// so unlike Rebase only a negative value is ignored.
func (t *Telemetry) RebaseMix(frac float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mixStreak = 0
	if frac < 0 || math.IsNaN(frac) {
		return
	}
	t.mixBaseline = frac
	t.mixBaselined = true
}

// AdoptMixBaseline rebases the mix track onto the currently observed
// smoothed mix (no-op before any mix observation). The controller calls
// this when it replans: the new plan was computed in full knowledge of the
// shifted mix, so drift is measured against the mix as adopted — otherwise
// a persistent skew flip would re-trigger a replan every epoch forever.
func (t *Telemetry) AdoptMixBaseline() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mixStreak = 0
	if t.mix.ready {
		t.mixBaseline = t.mix.value
		t.mixBaselined = true
	}
}

// ObserveEpoch folds one epoch's measurements into the stream and returns
// the drifts that crossed their hysteresis gates this epoch (nil when the
// environment still matches the plan). While a sustained drift persists
// un-replanned it is re-reported every epoch; the controller's Rebase after
// replanning clears the streaks.
func (t *Telemetry) ObserveEpoch(s EpochSample) []Drift {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Drift
	note := func(m *metricTrack, v float64) {
		if v <= 0 {
			return
		}
		if m.observe(v, t.cfg) {
			out = append(out, Drift{
				Kind:     m.kind,
				Epoch:    s.Epoch,
				Baseline: m.baseline,
				Current:  m.ewma.value,
			})
		}
	}
	note(&t.bandwidth, s.Bandwidth)
	note(&t.occupancy, s.StorageOccupancy)

	if s.MixTotal > 0 && s.MixHeavy >= 0 && s.MixHeavy <= s.MixTotal {
		t.mix.observe(float64(s.MixHeavy) / float64(s.MixTotal))
		if t.mixBaselined {
			if math.Abs(t.mix.value-t.mixBaseline) < defaultDriftMixThreshold {
				t.mixStreak = 0
			} else {
				t.mixStreak++
				if t.mixStreak >= t.cfg.Hysteresis {
					out = append(out, Drift{
						Kind:     driftMix,
						Epoch:    s.Epoch,
						Baseline: t.mixBaseline,
						Current:  t.mix.value,
					})
				}
			}
		}
	}

	if s.Shards > 0 {
		if t.shardsUp >= 0 && s.ShardsUp != t.shardsUp {
			out = append(out, Drift{
				Kind:     DriftShard,
				Epoch:    s.Epoch,
				Baseline: float64(t.shardsUp),
				Current:  float64(s.ShardsUp),
			})
		}
		t.shardsUp = s.ShardsUp
	}
	return out
}

// Bandwidth returns the smoothed link bandwidth (bytes/second; 0 before any
// measurement).
func (t *Telemetry) Bandwidth() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bandwidth.ewma.value
}
