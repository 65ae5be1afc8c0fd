package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/simclock"
)

// RunAdaptiveSim drives the controller loop at the model tier: each epoch
// the DES simulates the CURRENT plan against that epoch's TRUE environment,
// the measured outcome (bandwidth from traffic over link-busy time) feeds
// the drift detector, and the controller replans
// at the boundary when the gates trip. This is the adaptive-vs-static
// evaluation harness: run once with Adaptive true and once false over the
// same EnvAt schedule and compare epoch-time series.

// SimConfig describes one adaptive simulation.
type SimConfig struct {
	// Trace is the stage-2 profile (also what the controller replans over).
	Trace *dataset.Trace
	// Env is the profiled environment the initial plan assumes; it is also
	// epoch 1's true environment unless EnvAt overrides it.
	Env policy.Env
	// Epochs to simulate (≥ 1).
	Epochs int
	// EnvAt gives each epoch's true environment, modeling mid-run reshapes
	// (nil → Env throughout). Deterministic in epoch by contract.
	EnvAt func(epoch uint64) policy.Env
	// Adaptive false freezes the initial plan (the static baseline).
	Adaptive bool
	// Drift tunes detection (zero fields default).
	Drift profiler.DriftConfig
}

// SimEpoch is one simulated epoch's outcome.
type SimEpoch struct {
	Epoch       uint64        `json:"epoch"`
	PlanVersion PlanVersion   `json:"plan_version"`
	EpochTime   time.Duration `json:"epoch_time"`
	// TrafficBytes crossed the storage link this epoch.
	TrafficBytes int64 `json:"traffic_bytes"`
	// MeasuredBandwidth is the link throughput the telemetry observed
	// (bytes/second).
	MeasuredBandwidth float64 `json:"measured_bandwidth"`
}

// SimResult is the full adaptive (or static) run.
type SimResult struct {
	Epochs  []SimEpoch
	History []ReplanEvent
}

// RunAdaptiveSim simulates cfg.Epochs epochs of the control loop.
func RunAdaptiveSim(cfg SimConfig) (SimResult, error) {
	if cfg.Epochs < 1 {
		return SimResult{}, fmt.Errorf("core: %d epochs", cfg.Epochs)
	}
	if cfg.Trace == nil || cfg.Trace.N() == 0 {
		return SimResult{}, errors.New("core: empty trace")
	}
	// The controller's timestamps come from a virtual clock at the Unix
	// epoch that advances by each simulated epoch time, so a simulation's
	// replan history is deterministic.
	clock := simclock.NewVirtual(time.Unix(0, 0))
	envAt := cfg.EnvAt
	if envAt == nil {
		envAt = func(uint64) policy.Env { return cfg.Env }
	}
	ctrl, err := NewController(ControllerConfig{
		Trace: cfg.Trace,
		Env:   cfg.Env,
		Drift: cfg.Drift,
		Clock: clock,
	})
	if err != nil {
		return SimResult{}, err
	}

	var epochs []SimEpoch
	for e := uint64(1); e <= uint64(cfg.Epochs); e++ {
		trueEnv := envAt(e)
		snap := ctrl.Current()
		res, err := engine.Run(engine.Config{
			Trace:  cfg.Trace,
			Plan:   snap.Plan,
			Env:    trueEnv,
			Shards: trueEnv.ShardCount(),
		})
		if err != nil {
			return SimResult{}, fmt.Errorf("core: epoch %d: %w", e, err)
		}
		clock.Advance(res.EpochTime)

		// Measured bandwidth emerges from the sim: each shard link
		// serializes its traffic at the true rate, so bytes over busy time
		// IS the environment's per-link bandwidth.
		var measuredBW float64
		if res.LinkBusy > 0 {
			measuredBW = float64(res.TrafficBytes) / res.LinkBusy.Seconds()
		}
		epochs = append(epochs, SimEpoch{
			Epoch:             e,
			PlanVersion:       snap.Version,
			EpochTime:         res.EpochTime,
			TrafficBytes:      res.TrafficBytes,
			MeasuredBandwidth: measuredBW,
		})

		if cfg.Adaptive {
			if _, _, err := ctrl.ObserveEpoch(profiler.EpochSample{Epoch: e, Bandwidth: measuredBW}); err != nil {
				return SimResult{}, err
			}
		}
	}

	return SimResult{Epochs: epochs, History: ctrl.History()}, nil
}
