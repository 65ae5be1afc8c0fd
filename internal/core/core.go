// Package core is the SOPHON framework façade — the paper's primary
// contribution assembled from its parts. It gates offloading on the
// stage-1 profiler verdict, feeds stage-2 per-sample metrics to the
// decision engine, and emits the offload plan plus the predicted epoch
// model that the trainer and the evaluation harness consume.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/profiler"
)

// Framework wires the two-stage profiler to the decision engine.
type Framework struct {
	// Engine is the decision engine; nil means the paper-faithful engine.
	Engine *policy.Sophon
}

// New returns a framework with the default engine.
func New() *Framework { return &Framework{Engine: policy.NewSophon()} }

// Decision is the outcome of a full SOPHON planning pass.
type Decision struct {
	// Stage1 holds the throughput probes that gated the decision.
	Stage1 profiler.Stage1Result
	// Activated reports whether offloading was turned on (the workload
	// was I/O-bound and the storage node has CPU budget).
	Activated bool
	// Plan is the per-sample offload plan (all-zero when not activated).
	Plan *policy.Plan
	// Baseline and Planned are the epoch models without and with the plan.
	Baseline policy.EpochModel
	Planned  policy.EpochModel
}

// PredictedSpeedup returns baseline/planned predicted epoch time.
func (d Decision) PredictedSpeedup() float64 {
	p := d.Planned.Predicted()
	if p <= 0 {
		return 1
	}
	return float64(d.Baseline.Predicted()) / float64(p)
}

// Decide runs stage 1 analytically from the no-offload baseline, then — if
// the workload is I/O-bound — runs the decision engine over the stage-2
// records.
func (f *Framework) Decide(tr *dataset.Trace, env policy.Env) (Decision, error) {
	if tr == nil || tr.N() == 0 {
		return Decision{}, errors.New("core: empty trace")
	}
	if err := env.Validate(); err != nil {
		return Decision{}, err
	}
	engine := f.Engine
	if engine == nil {
		engine = policy.NewSophon()
	}

	noOff, err := policy.NewUniformPlan(engine.Name(), tr.N(), 0)
	if err != nil {
		return Decision{}, err
	}
	baseline, err := policy.ModelFor(tr, noOff, env)
	if err != nil {
		return Decision{}, err
	}
	// Each probe converges to the samples an epoch moves over the matching
	// term, so stage 1 reads the baseline's own per-shard terms.
	n := float64(tr.N())
	stage1 := profiler.Stage1Result{
		GPUThroughput: n / baseline.TG.Seconds(),
		IOThroughput:  n / baseline.TNet.Seconds(),
		CPUThroughput: n / baseline.TCC.Seconds(),
	}
	d := Decision{Stage1: stage1, Plan: noOff, Baseline: baseline, Planned: baseline}
	if !stage1.IOBound() || env.StorageCores == 0 {
		// CPU- or GPU-bound workloads don't benefit from traffic
		// reduction; the paper defers those to CPU-offloading systems.
		return d, nil
	}

	plan, err := engine.Plan(tr, env)
	if err != nil {
		return Decision{}, fmt.Errorf("core: decision engine: %w", err)
	}
	planned, err := policy.ModelFor(tr, plan, env)
	if err != nil {
		return Decision{}, err
	}
	d.Plan = plan
	d.Planned = planned
	d.Activated = plan.OffloadedCount() > 0
	return d, nil
}

// DecideWithStage1 is Decide with an externally measured stage-1 result
// (the live trainer's 50-batch probes) instead of the analytic one.
func (f *Framework) DecideWithStage1(tr *dataset.Trace, env policy.Env, stage1 profiler.Stage1Result) (Decision, error) {
	d, err := f.Decide(tr, env)
	if err != nil {
		return Decision{}, err
	}
	d.Stage1 = stage1
	if !stage1.IOBound() {
		// Measured verdict overrides: deactivate.
		noOff, err := policy.NewUniformPlan(d.Plan.Name, tr.N(), 0)
		if err != nil {
			return Decision{}, err
		}
		d.Plan = noOff
		d.Planned = d.Baseline
		d.Activated = false
	}
	return d, nil
}
