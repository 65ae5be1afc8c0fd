// Package policy implements offloading plans and the policies that produce
// them: the paper's baselines (No-Off, All-Off, Resize-Off, FastFlow) and
// SOPHON's decision engine, which selects samples in descending offloading
// efficiency until network time stops being the dominant epoch cost.
package policy

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
)

// Plan assigns each sample a split: the number of pipeline ops executed on
// the storage server before transfer. Split 0 ships the raw object.
//
// Fidelity is the progressive second dimension: for split-0 samples stored
// as progressive containers, Fidelity[i] refinement scans are withheld in
// transfer (the server slices the stored container; see imaging.SlicePrefix). A
// nil or all-zero Fidelity means full fidelity everywhere — a discrete
// plan is exactly that case. Fidelity is advisory for split > 0: deeper
// cuts ship decoded artifacts with no scan structure.
type Plan struct {
	Name     string
	Splits   []uint8
	Fidelity []uint8 // scans dropped per sample; nil = full fidelity
}

// ErrPlanMismatch reports a plan sized for a different dataset.
var ErrPlanMismatch = errors.New("policy: plan does not match trace")

// NewUniformPlan assigns the same split to every one of n samples.
func NewUniformPlan(name string, n, split int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("policy: plan needs n > 0, got %d", n)
	}
	if split < 0 || split > dataset.OpCount {
		return nil, fmt.Errorf("policy: split %d out of range", split)
	}
	splits := make([]uint8, n)
	for i := range splits {
		splits[i] = uint8(split)
	}
	return &Plan{Name: name, Splits: splits}, nil
}

// N returns the number of samples covered.
func (p *Plan) N() int { return len(p.Splits) }

// Split returns sample id's split.
func (p *Plan) Split(id int) int {
	if id < 0 || id >= len(p.Splits) {
		return 0
	}
	return int(p.Splits[id])
}

// OffloadedCount returns how many samples have a non-zero split.
func (p *Plan) OffloadedCount() int {
	n := 0
	for _, s := range p.Splits {
		if s > 0 {
			n++
		}
	}
	return n
}

// SplitHistogram counts samples per split value; index k of the result is
// the number of samples shipping their stage-k artifact.
func (p *Plan) SplitHistogram() [dataset.StageCount]int {
	var h [dataset.StageCount]int
	for _, s := range p.Splits {
		if int(s) < dataset.StageCount {
			h[s]++
		}
	}
	return h
}

// String summarizes the plan for logs: name, coverage, and the split
// distribution.
func (p *Plan) String() string {
	h := p.SplitHistogram()
	if reduced := p.ReducedCount(); reduced > 0 {
		return fmt.Sprintf("Plan(%s: %d/%d offloaded, %d reduced-fidelity, splits %v)",
			p.Name, p.OffloadedCount(), p.N(), reduced, h)
	}
	return fmt.Sprintf("Plan(%s: %d/%d offloaded, splits %v)",
		p.Name, p.OffloadedCount(), p.N(), h)
}

// Traffic returns the planned per-epoch transfer volume in bytes: each
// sample ships its stage-split artifact.
func (p *Plan) Traffic(tr *dataset.Trace) (int64, error) {
	if len(p.Splits) != tr.N() {
		return 0, fmt.Errorf("%w: plan %d vs trace %d", ErrPlanMismatch, len(p.Splits), tr.N())
	}
	var sum int64
	for i := range tr.Records {
		sum += tr.Records[i].StageSizes[p.Splits[i]]
	}
	return sum, nil
}

// ComputeCPU returns the total single-core CPU time of the local suffixes.
func (p *Plan) ComputeCPU(tr *dataset.Trace) (time.Duration, error) {
	if len(p.Splits) != tr.N() {
		return 0, fmt.Errorf("%w: plan %d vs trace %d", ErrPlanMismatch, len(p.Splits), tr.N())
	}
	var sum time.Duration
	for i := range tr.Records {
		sum += tr.Records[i].TotalTime() - tr.Records[i].PrefixTime(int(p.Splits[i]))
	}
	return sum, nil
}

// Env describes the training environment's resources — everything the
// decision engine needs besides per-sample metrics.
type Env struct {
	// Bandwidth is the storage→compute link capacity in bytes/second.
	Bandwidth float64
	// ComputeCores is the CPU-core count available for local preprocessing.
	ComputeCores int
	// StorageCores is the CPU-core budget for offloaded preprocessing
	// (0 disables offloading).
	StorageCores int
	// StorageSlowdown scales offloaded op times for weaker storage CPUs
	// (1 = identical CPUs, the paper's assumption).
	StorageSlowdown float64
	// GPU is the training model's speed profile.
	GPU gpu.Model
	// GPUCount is the number of accelerators sharing the link (the paper's
	// Discussion: a 400-GPU cluster needs ~200 Gbps). 0 means 1.
	GPUCount int
	// Shards is the storage-server count of a sharded tier. With K > 1,
	// Bandwidth and StorageCores become PER-SHARD quantities: every sample
	// competes only for its own shard's cores and link (placement follows
	// cluster.ShardMap), so TCS and TNet are the maxima over per-shard
	// loads rather than pooled totals. 0 or 1 means the single-server
	// setup and reproduces the paper's model exactly.
	Shards int
}

// Validate checks the environment is usable.
func (e Env) Validate() error {
	if !(e.Bandwidth > 0) || math.IsInf(e.Bandwidth, 0) {
		return errors.New("policy: bandwidth must be positive and finite")
	}
	if e.ComputeCores <= 0 {
		return errors.New("policy: compute cores must be positive")
	}
	if e.StorageCores < 0 {
		return errors.New("policy: storage cores must be non-negative")
	}
	if !(e.StorageSlowdown >= 1) || math.IsInf(e.StorageSlowdown, 0) {
		return errors.New("policy: storage slowdown must be finite and >= 1")
	}
	if !e.GPU.Valid() {
		return errors.New("policy: GPU model must have positive throughput")
	}
	if e.GPUCount < 0 {
		return errors.New("policy: GPU count must be non-negative")
	}
	if e.Shards < 0 {
		return errors.New("policy: shard count must be non-negative")
	}
	return nil
}

// GPUs returns the effective accelerator count.
func (e Env) GPUs() int {
	if e.GPUCount <= 0 {
		return 1
	}
	return e.GPUCount
}

// ShardCount returns the effective storage-server count.
func (e Env) ShardCount() int {
	if e.Shards <= 0 {
		return 1
	}
	return e.Shards
}

// EpochModel holds the paper's four per-epoch cost metrics.
type EpochModel struct {
	TG   time.Duration // GPU compute time
	TCC  time.Duration // compute-node CPU time (local preprocessing / cores)
	TCS  time.Duration // storage-node CPU time (offloaded prefixes / cores)
	TNet time.Duration // link transfer time (traffic / bandwidth)
}

// Predicted returns the modeled epoch time: the pipeline's slowest stage.
func (m EpochModel) Predicted() time.Duration {
	max := m.TG
	for _, d := range []time.Duration{m.TCC, m.TCS, m.TNet} {
		if d > max {
			max = d
		}
	}
	return max
}

// NetDominant reports whether T_Net is the strict maximum — the paper's
// condition for continuing to offload.
func (m EpochModel) NetDominant() bool {
	return m.TNet > m.TG && m.TNet > m.TCC && m.TNet > m.TCS
}

// Dominant names the largest metric (ties broken in order TG, TCC, TCS,
// TNet).
func (m EpochModel) Dominant() string {
	name, max := "TG", m.TG
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"TCC", m.TCC}, {"TCS", m.TCS}, {"TNet", m.TNet}} {
		if c.d > max {
			name, max = c.name, c.d
		}
	}
	return name
}

// ShardLoads returns each shard's planned transfer volume and single-core
// storage CPU under the canonical cluster placement. With shards == 1 the
// sums equal Plan.Traffic and the offloaded prefixes' summed CPU time.
func (p *Plan) ShardLoads(tr *dataset.Trace, shards int) ([]int64, []time.Duration, error) {
	if len(p.Splits) != tr.N() {
		return nil, nil, fmt.Errorf("%w: plan %d vs trace %d", ErrPlanMismatch, len(p.Splits), tr.N())
	}
	m, err := cluster.NewShardMap(shards)
	if err != nil {
		return nil, nil, err
	}
	traffic := make([]int64, shards)
	storageCPU := make([]time.Duration, shards)
	for i := range tr.Records {
		s := m.ShardOf(uint32(i))
		traffic[s] += tr.Records[i].StageSizes[p.Splits[i]]
		storageCPU[s] += tr.Records[i].PrefixTime(int(p.Splits[i]))
	}
	return traffic, storageCPU, nil
}

// ModelFor evaluates the four metrics for a plan under an environment. With
// env.Shards > 1 the storage-side metrics are per-shard maxima: each shard
// serves only its own samples over its own link with its own cores, so the
// epoch is paced by the most loaded shard, not the pooled average.
func ModelFor(tr *dataset.Trace, p *Plan, env Env) (EpochModel, error) {
	if err := env.Validate(); err != nil {
		return EpochModel{}, err
	}
	computeCPU, err := p.ComputeCPU(tr)
	if err != nil {
		return EpochModel{}, err
	}
	m := EpochModel{
		TG:  env.GPU.EpochTime(tr.N()) / time.Duration(env.GPUs()),
		TCC: computeCPU / time.Duration(env.ComputeCores),
	}
	traffic, storageCPU, err := p.ShardLoads(tr, env.ShardCount())
	if err != nil {
		return EpochModel{}, err
	}
	for s := range traffic {
		if t := time.Duration(float64(traffic[s]) / env.Bandwidth * float64(time.Second)); t > m.TNet {
			m.TNet = t
		}
		if storageCPU[s] > 0 {
			if env.StorageCores == 0 {
				return EpochModel{}, errors.New("policy: plan offloads but storage has 0 cores")
			}
			scaled := time.Duration(float64(storageCPU[s]) * env.StorageSlowdown)
			if t := scaled / time.Duration(env.StorageCores); t > m.TCS {
				m.TCS = t
			}
		}
	}
	return m, nil
}
