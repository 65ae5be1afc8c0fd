package policy

import (
	"math"
	"sort"
	"time"

	"repro/internal/dataset"
)

// Sophon is the paper's decision engine. Given per-sample profiles and the
// environment, it: (1) finds each sample's minimum-size stage and the CPU
// cost to reach it; (2) ranks samples by offloading efficiency — bytes of
// traffic saved per storage-CPU second; (3) greedily offloads in that order,
// updating the four epoch metrics, until T_Net stops being the strictly
// dominant cost or candidates run out.
type Sophon struct {
	// StepGuard, when set, skips any candidate whose admission would
	// increase the predicted epoch time (an extension over the paper's
	// stop conditions; benchmarked as Ablation A).
	StepGuard bool
	// Fidelity, when non-nil, enables the progressive second pass: after
	// the discrete loop, split-0 samples may additionally withhold
	// refinement scans of their progressive container (zero storage-CPU
	// cost, bounded by the pass's quality floors). The resulting plan
	// carries a Fidelity vector.
	Fidelity *FidelityPass
}

// NewSophon returns the paper-faithful engine (no step guard).
func NewSophon() *Sophon { return &Sophon{} }

// Name implements Policy.
func (s *Sophon) Name() string {
	name := "SOPHON"
	if s.StepGuard {
		name += "+guard"
	}
	if s.Fidelity != nil {
		name += "+fid"
	}
	return name
}

// Capabilities is SOPHON's row of Table 1: it is the only system with all
// four properties.
func (s *Sophon) Capabilities() Capabilities {
	return Capabilities{
		OperationSelective: yes,
		DataPartial:        yes,
		DataSelective:      yes,
		NearStorage:        yes,
	}
}

// Candidate is one sample's best offloading option.
type Candidate struct {
	ID         int
	Split      int           // stage index of the sample's minimum size
	Saving     int64         // bytes saved vs shipping raw
	PrefixCPU  time.Duration // storage-side CPU cost (one core, unscaled)
	Efficiency float64       // bytes saved per CPU-second; 0 if not worth offloading
}

// Candidates evaluates every sample's best offload option. Samples whose
// minimum size is the raw form get Split 0 and Efficiency 0 — the 24 %
// (OpenImages) / 74 % (ImageNet) of Figure 1c that sit at ratio zero.
func Candidates(tr *dataset.Trace) []Candidate {
	out := make([]Candidate, tr.N())
	for i := range tr.Records {
		r := &tr.Records[i]
		c := Candidate{ID: i}
		k := r.MinStage()
		if k > 0 {
			saving := r.Saving(k)
			if saving > 0 {
				prefix := r.PrefixTime(k)
				c.Split = k
				c.Saving = saving
				c.PrefixCPU = prefix
				if prefix > 0 {
					c.Efficiency = float64(saving) / prefix.Seconds()
				} else {
					c.Efficiency = math.Inf(1)
				}
			}
		}
		out[i] = c
	}
	return out
}

// Plan implements Policy.
func (s *Sophon) Plan(tr *dataset.Trace, env Env) (*Plan, error) {
	if s.Fidelity != nil {
		if err := s.Fidelity.validate(); err != nil {
			return nil, err
		}
	}
	plan, err := NewUniformPlan(s.Name(), tr.N(), 0)
	if err != nil {
		return nil, err
	}
	t, err := newTerms(tr, plan, env)
	if err != nil {
		return nil, err
	}
	if !t.anyDominant() {
		// The workload is not I/O-bound: the profiler would not have
		// activated offloading (stage-1 gate), and neither do we.
		return plan, nil
	}
	// Discrete offloading is impossible without storage cores, but a
	// fidelity drop costs none (the server slices stored containers), so
	// the progressive pass still applies when the link dominates.
	if env.StorageCores > 0 {
		s.offloadGreedy(plan, tr, t)
	}
	if s.Fidelity != nil {
		// Continue the greedy state into the progressive pass: shards whose
		// T_Net the discrete loop could not bring down (typically because
		// storage cores ran out first) shed further bytes by withholding
		// refinement scans, which costs no storage CPU at all.
		s.Fidelity.apply(plan, tr, t)
	}
	return plan, nil
}

// offloadGreedy is the discrete loop. It tracks the storage-side terms PER
// SHARD: each candidate's admission relieves only its own shard's link and
// burns only its own shard's cores, and a candidate is admitted only while
// its shard's T_Net is still the strictly dominant cost. With one shard
// this is the paper's scalar loop exactly.
func (s *Sophon) offloadGreedy(plan *Plan, tr *dataset.Trace, t *terms) {
	cands := Candidates(tr)
	// Keep only samples with a real benefit, ranked by efficiency
	// (deterministic tie-break on ID).
	ranked := cands[:0]
	for _, c := range cands {
		if c.Saving > 0 {
			ranked = append(ranked, c)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Efficiency != ranked[j].Efficiency {
			return ranked[i].Efficiency > ranked[j].Efficiency
		}
		return ranked[i].ID < ranked[j].ID
	})

	storage := time.Duration(t.env.StorageCores)
	compute := time.Duration(t.env.ComputeCores)
	for _, c := range ranked {
		if !t.anyDominant() {
			break // no shard's T_Net is the predominant metric anymore
		}
		sh := t.shards.ShardOf(uint32(c.ID))
		if !t.netDominant(sh) {
			continue // this sample's shard is already off the critical path
		}
		dNet := t.net(c.Saving)
		dCS := time.Duration(float64(c.PrefixCPU)*t.env.StorageSlowdown) / storage
		dCC := c.PrefixCPU / compute
		if s.StepGuard {
			cur := t.model().Predicted()
			t.offload(sh, dNet, dCS, dCC)
			next := t.model().Predicted()
			t.offload(sh, -dNet, -dCS, -dCC)
			if next > cur {
				continue
			}
		}
		plan.Splits[c.ID] = uint8(c.Split)
		t.offload(sh, dNet, dCS, dCC)
	}
}
