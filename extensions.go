package sophon

import (
	"repro/internal/policy"
)

// This file exposes the building blocks beside the two tiers: the epoch cost
// model, uniform plans, and the per-sample offload candidates.

// EpochModelFor evaluates the paper's four epoch cost metrics (T_G, T_CC,
// T_CS, T_Net) for a plan.
func EpochModelFor(tr *Trace, plan *Plan, env Env) (EpochModel, error) {
	return policy.ModelFor(tr, plan, env)
}

// NewUniformPlan assigns every sample the same offloaded prefix length.
func NewUniformPlan(name string, n, split int) (*Plan, error) {
	return policy.NewUniformPlan(name, n, split)
}

// OffloadCandidates evaluates every sample's best offload option (stage,
// bytes saved, CPU cost, efficiency) — the quantities behind Figure 1c.
func OffloadCandidates(tr *Trace) []policy.Candidate {
	return policy.Candidates(tr)
}
