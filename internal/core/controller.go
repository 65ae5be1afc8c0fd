package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/simclock"
)

// PlanVersion identifies one plan snapshot of a controller. Versions start
// at 1 and each replan adds one.
type PlanVersion uint32

// PlanSnapshot is one plan the controller wants executed. A replan installs
// a NEW snapshot with the next version rather than mutating the old one, so
// an epoch running under a stale snapshot stays internally consistent; the
// snapshot and its plan are read-only.
type PlanSnapshot struct {
	// Version orders snapshots; higher supersedes lower.
	Version PlanVersion
	// Plan is the per-sample offload plan.
	Plan *policy.Plan
	// Epoch is the first training epoch the snapshot applies to.
	Epoch uint64
	// Reason records why this snapshot was produced ("initial" or
	// "bandwidth-drift").
	Reason string
}

// String summarizes the snapshot for logs.
func (s *PlanSnapshot) String() string {
	return fmt.Sprintf("PlanSnapshot(v%d epoch %d %q: %d/%d offloaded)",
		s.Version, s.Epoch, s.Reason, s.Plan.OffloadedCount(), s.Plan.N())
}

// Controller is the adaptive control plane: it holds the current plan
// snapshot, folds per-epoch telemetry into the drift detector, and replans
// when the measured link no longer matches the one the current plan was
// computed against. Every replan takes effect at the next epoch boundary,
// and every transition is recorded in a replan history with its reason.
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

	mu      sync.Mutex
	cur     *PlanSnapshot
	env     policy.Env // environment estimate the current plan assumes
	history []ReplanEvent
}

// ReplanEvent is one control-plane transition.
type ReplanEvent struct {
	// Version and Epoch identify the snapshot and the first epoch it
	// governs.
	Version PlanVersion `json:"version"`
	Epoch   uint64      `json:"epoch"`
	// Reason names what triggered the replan: "initial" or
	// "bandwidth-drift".
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
}

// NewController computes the initial plan (version 1, reason "initial").
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
	c := &Controller{
		fw:    fw,
		trace: cfg.Trace,
		clock: clock,
		tel:   tel,
		cur:   &PlanSnapshot{Version: 1, Plan: d.Plan, Epoch: 1, Reason: "initial"},
		env:   cfg.Env,
	}
	tel.Rebase(cfg.Env.Bandwidth)
	c.history = append(c.history, ReplanEvent{
		Version: 1, Epoch: 1, Reason: "initial",
		Bandwidth: cfg.Env.Bandwidth, At: clock.Now(),
	})
	return c, nil
}

// Current returns the snapshot in force.
func (c *Controller) Current() *PlanSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// History returns a copy of the replan history, oldest first.
func (c *Controller) History() []ReplanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplanEvent, len(c.history))
	copy(out, c.history)
	return out
}

// ObserveEpoch folds one epoch's measurements in at the epoch boundary. If
// the link drifted past its hysteresis gate, the controller replans
// effective the NEXT epoch and installs the new snapshot; otherwise the
// current snapshot is returned unchanged. The returned drift is nil when
// nothing moved.
func (c *Controller) ObserveEpoch(s profiler.EpochSample) (*PlanSnapshot, *profiler.Drift, error) {
	drift := c.tel.ObserveEpoch(s)
	if drift == nil {
		return c.Current(), nil, nil
	}
	snap, err := c.replan(s.Epoch + 1)
	return snap, drift, err
}

// replan recomputes the plan against the measured link and installs it
// effective the given epoch.
func (c *Controller) replan(effective uint64) (*PlanSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	env := c.env
	env.Bandwidth = c.tel.Bandwidth() // > 0: a drift follows a measurement
	d, err := c.fw.Decide(c.trace, env)
	if err != nil {
		return nil, fmt.Errorf("core: replan: %w", err)
	}
	const reason = "bandwidth-drift"
	c.cur = &PlanSnapshot{Version: c.cur.Version + 1, Plan: d.Plan, Epoch: effective, Reason: reason}
	c.env = env
	c.tel.Rebase(env.Bandwidth)
	c.history = append(c.history, ReplanEvent{
		Version: c.cur.Version, Epoch: effective, Reason: reason,
		Bandwidth: env.Bandwidth, At: c.clock.Now(),
	})
	if len(c.history) > maxHistory {
		c.history = c.history[len(c.history)-maxHistory:]
	}
	return c.cur, nil
}
