package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/prepsched"
	"repro/internal/profiler"
	"repro/internal/simclock"
)

// Controller is the adaptive control plane: it owns the live plan feed,
// folds per-epoch telemetry into the drift detector, and replans when the
// measured environment no longer matches the one the current plan was
// computed against. Replans land at epoch boundaries — except shard
// topology changes, which replan immediately — and every transition is
// recorded in a replan history with its reason.
//
// The controller never reads the wall clock directly: history timestamps
// come from the injected simclock.Clock and all other state advances only
// through Observe calls, so same-seed runs under the virtual clock produce
// identical replan histories.
type Controller struct {
	fw    *Framework
	trace *dataset.Trace
	clock simclock.Clock
	tel   *profiler.Telemetry
	feed  *policy.PlanFeed

	mu       sync.Mutex
	env      policy.Env // environment estimate the current plan assumes
	decision Decision   // latest planning outcome
	history  []ReplanEvent
	onReplan []func(*policy.PlanSnapshot)
}

// ReplanEvent is one control-plane transition.
type ReplanEvent struct {
	// Version and Epoch identify the snapshot and the first epoch it
	// governs.
	Version policy.PlanVersion `json:"version"`
	Epoch   uint64             `json:"epoch"`
	// Reason names what triggered the replan ("initial", "bandwidth-drift",
	// "shard-change", or a "+"-joined combination).
	Reason string `json:"reason"`
	// Bandwidth is the link estimate the new plan assumes (bytes/second).
	Bandwidth float64 `json:"bandwidth"`
	// At is the controller clock's time of the transition.
	At time.Time `json:"at"`
}

// String renders the event for logs.
func (e ReplanEvent) String() string {
	return fmt.Sprintf("v%d@epoch%d %s (%.1f MB/s)", e.Version, e.Epoch, e.Reason, e.Bandwidth/1e6)
}

// maxHistory bounds the replan history.
const maxHistory = 256

// ControllerConfig configures the adaptive controller.
type ControllerConfig struct {
	// Framework plans; nil means the paper-faithful engine.
	Framework *Framework
	// Trace is the stage-2 profile the decision engine replans over.
	Trace *dataset.Trace
	// Env is the initial environment (the one stage 1/2 profiled).
	Env policy.Env
	// Drift tunes detection; zero fields default (see profiler.DriftConfig).
	Drift profiler.DriftConfig
	// Clock timestamps replan events (nil → wall clock; tests and the DES
	// inject a virtual clock).
	Clock simclock.Clock
	// HeavyRatio is the variance-aware classifier's threshold as a multiple
	// of the trace's mean preprocessing cost (0 → prepsched's default). The
	// controller uses it to anchor the drift detector's mix track to the
	// trace's plan-time heavy fraction.
	HeavyRatio float64
}

// NewController computes the initial plan (version 1, reason "initial") and
// starts the feed.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Trace == nil || cfg.Trace.N() == 0 {
		return nil, errors.New("core: controller needs a trace")
	}
	if err := cfg.Env.Validate(); err != nil {
		return nil, err
	}
	fw := cfg.Framework
	if fw == nil {
		fw = New()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real()
	}
	tel, err := profiler.NewTelemetry(cfg.Drift)
	if err != nil {
		return nil, err
	}
	d, err := fw.Decide(cfg.Trace, cfg.Env)
	if err != nil {
		return nil, err
	}
	snap := &policy.PlanSnapshot{
		Version: 1,
		Plan:    d.Plan,
		Env:     cfg.Env,
		Epoch:   1,
		Reason:  "initial",
	}
	feed, err := policy.NewPlanFeed(snap)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		fw:       fw,
		trace:    cfg.Trace,
		clock:    clock,
		tel:      tel,
		feed:     feed,
		env:      cfg.Env,
		decision: d,
	}
	c.rebaseLocked(d)
	// Anchor the mix track to the profile's own heavy fraction: the plan was
	// computed over this trace, so its heavy/light mix is the plan-time
	// baseline a mid-training skew flip drifts from.
	if cl, err := prepsched.FromTrace(cfg.Trace, cfg.HeavyRatio); err == nil {
		tel.RebaseMix(cl.BaselineHeavyFrac())
	} else if cfg.HeavyRatio != 0 {
		return nil, fmt.Errorf("core: heavy ratio: %w", err)
	}
	c.history = append(c.history, ReplanEvent{
		Version: 1, Epoch: 1, Reason: "initial",
		Bandwidth: cfg.Env.Bandwidth, At: clock.Now(),
	})
	return c, nil
}

// rebaseLocked anchors the drift detector to the environment the decision
// assumes: bandwidth from the planning env, storage occupancy from the
// model's predicted storage share, per-sample op time from the trace.
func (c *Controller) rebaseLocked(d Decision) {
	occ := 0.0
	if p := d.Planned.Predicted(); p > 0 {
		occ = float64(d.Planned.TCS) / float64(p)
	}
	var opTime time.Duration
	if n := c.trace.N(); n > 0 {
		opTime = c.trace.TotalPreprocessCPU() / time.Duration(n)
	}
	c.tel.Rebase(c.env.Bandwidth, occ, opTime)
	// The replanned plan was computed in full knowledge of the observed mix,
	// so adopt it as the new baseline — a persistent skew flip replans once,
	// not every epoch. A no-op before the first mix observation (the initial
	// plan's baseline comes from RebaseMix over the trace instead).
	c.tel.AdoptMixBaseline()
}

// Current implements policy.PlanProvider.
func (c *Controller) Current() *policy.PlanSnapshot { return c.feed.Current() }

// Subscribe implements policy.PlanProvider.
func (c *Controller) Subscribe() <-chan *policy.PlanSnapshot { return c.feed.Subscribe() }

// Decision returns the latest planning outcome.
func (c *Controller) Decision() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decision
}

// History returns a copy of the replan history, oldest first.
func (c *Controller) History() []ReplanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplanEvent, len(c.history))
	copy(out, c.history)
	return out
}

// OnReplan registers a callback invoked synchronously — on the replanning
// goroutine, after the snapshot is published to the feed — for every
// subsequent replan. Unlike Subscribe's buffered channel this cannot drop
// transitions, which is what live consumers of the plan (the trainer's
// lookahead scheduler rotating cut depths mid-stream) need: by the time the
// Observe* call that triggered the replan returns, every callback has seen
// the new snapshot. Callbacks run outside the controller's lock.
func (c *Controller) OnReplan(fn func(*policy.PlanSnapshot)) {
	if fn == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onReplan = append(c.onReplan, fn)
}

// ObserveEpoch folds one epoch's measurements in at the epoch boundary. If
// drift crossed its hysteresis gate, the controller replans effective the
// NEXT epoch and publishes the new snapshot; otherwise the current snapshot
// is returned unchanged. The returned drifts say what (if anything) moved.
func (c *Controller) ObserveEpoch(s profiler.EpochSample) (*policy.PlanSnapshot, []profiler.Drift, error) {
	drifts := c.tel.ObserveEpoch(s)
	if len(drifts) == 0 {
		return c.feed.Current(), nil, nil
	}
	snap, err := c.replan(drifts, s.Epoch+1)
	return snap, drifts, err
}

// ObserveShardChange reports a degradation event landing mid-epoch (a shard
// killed or partitioned). Unlike metric drift this replans immediately —
// effective the CURRENT epoch — because a dead shard invalidates placement
// now, not after hysteresis.
func (c *Controller) ObserveShardChange(epoch uint64, shardsUp, shards int) (*policy.PlanSnapshot, error) {
	d := c.tel.ObserveShardChange(epoch, shardsUp, shards)
	if d == nil {
		return c.feed.Current(), nil
	}
	return c.replan([]profiler.Drift{*d}, epoch)
}

// replan recomputes the plan against the measured environment, publishes it
// effective the given epoch, and then runs the OnReplan callbacks (outside
// the lock, so callbacks may take their own locks freely).
func (c *Controller) replan(drifts []profiler.Drift, effective uint64) (*policy.PlanSnapshot, error) {
	snap, cbs, err := c.replanLocked(drifts, effective)
	if err != nil {
		return nil, err
	}
	for _, fn := range cbs {
		fn(snap)
	}
	return snap, nil
}

func (c *Controller) replanLocked(drifts []profiler.Drift, effective uint64) (*policy.PlanSnapshot, []func(*policy.PlanSnapshot), error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	env := c.env
	if bw := c.tel.Bandwidth(); bw > 0 {
		env.Bandwidth = bw
	}
	for _, d := range drifts {
		if d.Kind == profiler.DriftShard {
			if up := int(d.Current); up >= 1 {
				env.Shards = up
			} else {
				env.Shards = 1
			}
		}
	}

	d, err := c.fw.Decide(c.trace, env)
	if err != nil {
		return nil, nil, fmt.Errorf("core: replan: %w", err)
	}

	kinds := make([]string, 0, len(drifts))
	for _, dr := range drifts {
		k := dr.Kind.String()
		if len(kinds) == 0 || kinds[len(kinds)-1] != k {
			kinds = append(kinds, k)
		}
	}
	reason := strings.Join(kinds, "+")

	cur := c.feed.Current()
	snap := &policy.PlanSnapshot{
		Version: cur.Version + 1,
		Plan:    d.Plan,
		Env:     env,
		Epoch:   effective,
		Reason:  reason,
	}
	if err := c.feed.Publish(snap); err != nil {
		return nil, nil, err
	}
	c.env = env
	c.decision = d
	c.rebaseLocked(d)
	c.history = append(c.history, ReplanEvent{
		Version: snap.Version, Epoch: effective, Reason: reason,
		Bandwidth: env.Bandwidth, At: c.clock.Now(),
	})
	if len(c.history) > maxHistory {
		c.history = c.history[len(c.history)-maxHistory:]
	}
	cbs := make([]func(*policy.PlanSnapshot), len(c.onReplan))
	copy(cbs, c.onReplan)
	return snap, cbs, nil
}
