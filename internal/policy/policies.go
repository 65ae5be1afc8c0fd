package policy

import (
	"repro/internal/dataset"
)

// Capability is a tri-state feature level for the Table 1 comparison.
type Capability uint8

// Capability levels above the zero Capability, which is "no".
const (
	Partial Capability = iota + 1
	yes
)

// String renders the level the way the paper's table does.
func (c Capability) String() string {
	switch c {
	case yes:
		return "yes"
	case Partial:
		return "partial"
	default:
		return "no"
	}
}

// Capabilities is one row of the paper's Table 1.
type Capabilities struct {
	OperationSelective Capability // can offload a subset of ops
	DataPartial        Capability // can offload part of the data path per sample
	DataSelective      Capability // chooses per-sample whether to offload
	NearStorage        Capability // offloads to the storage cluster itself
}

// Policy produces an offload plan for a profiled dataset in an environment.
type Policy interface {
	Name() string
	Plan(tr *dataset.Trace, env Env) (*Plan, error)
}

// NoOff is the original training pipeline: nothing is offloaded.
type NoOff struct{}

// Name implements Policy.
func (NoOff) Name() string { return "No-Off" }

// Plan implements Policy.
func (NoOff) Plan(tr *dataset.Trace, env Env) (*Plan, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return NewUniformPlan("No-Off", tr.N(), 0)
}

// AllOff offloads every op of every sample — the coarse strategy the paper
// shows backfires because ToTensor inflates the transfer 4×.
type AllOff struct{}

// Name implements Policy.
func (AllOff) Name() string { return "All-Off" }

// Plan implements Policy.
func (AllOff) Plan(tr *dataset.Trace, env Env) (*Plan, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if env.StorageCores == 0 {
		return NewUniformPlan("All-Off", tr.N(), 0)
	}
	return NewUniformPlan("All-Off", tr.N(), dataset.OpCount)
}

// ResizeOff offloads Decode and RandomResizedCrop for every sample — the
// static heuristic from the paper's evaluation, which wins on OpenImages
// but loses on ImageNet and saturates weak storage CPUs.
type ResizeOff struct{}

// resizeSplit is the prefix length of Decode+RandomResizedCrop.
const resizeSplit = 2

// Name implements Policy.
func (ResizeOff) Name() string { return "Resize-Off" }

// Plan implements Policy.
func (ResizeOff) Plan(tr *dataset.Trace, env Env) (*Plan, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if env.StorageCores == 0 {
		return NewUniformPlan("Resize-Off", tr.N(), 0)
	}
	return NewUniformPlan("Resize-Off", tr.N(), resizeSplit)
}

// FastFlow models the published FastFlow decision rule: it treats the whole
// preprocessing pipeline as a single unit, applies one decision uniformly
// to all samples, and offloads only when its cost model predicts a shorter
// epoch. With traffic-inflating pipelines it therefore always declines —
// exactly the behaviour the paper reports in both evaluation scenarios.
type FastFlow struct{}

// Name implements Policy.
func (FastFlow) Name() string { return "FastFlow" }

// Capabilities is FastFlow's row of Table 1.
func (FastFlow) Capabilities() Capabilities {
	return Capabilities{DataPartial: Partial}
}

// Plan implements Policy.
func (FastFlow) Plan(tr *dataset.Trace, env Env) (*Plan, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	noOff, err := NewUniformPlan("FastFlow", tr.N(), 0)
	if err != nil {
		return nil, err
	}
	if env.StorageCores == 0 {
		return noOff, nil
	}
	baseline, err := ModelFor(tr, noOff, env)
	if err != nil {
		return nil, err
	}
	allOff, err := NewUniformPlan("FastFlow", tr.N(), dataset.OpCount)
	if err != nil {
		return nil, err
	}
	offloaded, err := ModelFor(tr, allOff, env)
	if err != nil {
		return nil, err
	}
	if offloaded.Predicted() < baseline.Predicted() {
		return allOff, nil
	}
	return noOff, nil
}

// Oracle is the traffic lower bound: every sample ships its minimum-size
// stage regardless of storage CPU cost. It is not achievable under CPU
// constraints — the gap between Oracle and SOPHON measures what the
// efficiency-ordered greedy loop gives up to respect them (Ablation H).
type Oracle struct{}

// Name implements Policy.
func (Oracle) Name() string { return "Oracle" }

// Plan implements Policy.
func (Oracle) Plan(tr *dataset.Trace, env Env) (*Plan, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	plan, err := NewUniformPlan("Oracle", tr.N(), 0)
	if err != nil {
		return nil, err
	}
	if env.StorageCores == 0 {
		return plan, nil
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		if k := r.MinStage(); k > 0 && r.Saving(k) > 0 {
			plan.Splits[i] = uint8(k)
		}
	}
	return plan, nil
}

// baselines returns the four comparison policies in the paper's order.
func baselines() []Policy {
	return []Policy{NoOff{}, AllOff{}, FastFlow{}, ResizeOff{}}
}

// All returns every policy including SOPHON, in the paper's figure order.
func All() []Policy {
	return append(baselines(), NewSophon())
}
