package sophon

import (
	"time"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/storage"
)

// This file exposes the paper's future-work extension of multi-tenant
// storage-CPU scheduling, and the building blocks beside the two tiers.

// TenantJob is one training job competing for storage-node CPU cores.
type TenantJob = sched.Job

// CoreAllocation is a scheduler outcome.
type CoreAllocation = sched.Allocation

// AllocateCores distributes totalCores across jobs by marginal epoch-time
// gain, re-planning each job with the SOPHON engine at every grant.
func AllocateCores(jobs []TenantJob, totalCores int) (CoreAllocation, error) {
	return sched.Allocate(jobs, totalCores, nil)
}

// EvenSplitCores is the naive baseline allocator.
func EvenSplitCores(jobs []TenantJob, totalCores int) (CoreAllocation, error) {
	return sched.EvenSplit(jobs, totalCores, nil)
}

// NewGuardedSophonPolicy returns the decision-engine variant that rejects
// greedy steps which would worsen the predicted epoch time (Ablation A).
func NewGuardedSophonPolicy() Policy { return &policy.Sophon{StepGuard: true} }

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

// PredictedEpoch is a convenience for EpochModel.Predicted.
func PredictedEpoch(m EpochModel) time.Duration { return m.Predicted() }

// Preprocessing pipelines beyond the paper's training pipeline.

// PreprocessingPipeline is an ordered, split-executable op sequence.
type PreprocessingPipeline = pipeline.Pipeline

// StandardPipeline is the paper's five-op training pipeline: Decode →
// RandomResizedCrop(crop) → RandomHorizontalFlip → ToTensor → Normalize.
func StandardPipeline(crop int) *PreprocessingPipeline {
	return pipeline.Standard(pipeline.StandardOptions{CropSize: crop, FlipP: -1})
}

// ValidationPipeline is the deterministic eval-time pipeline: Decode →
// Resize(shorter) → CenterCrop(crop) → ToTensor → Normalize.
func ValidationPipeline(resize, crop int) (*PreprocessingPipeline, error) {
	return pipeline.Validation(resize, crop)
}

// AugmentedPipeline adds ColorJitter and RandomGrayscale to the training
// pipeline.
func AugmentedPipeline(crop int, jitter, grayscaleP float64) (*PreprocessingPipeline, error) {
	return pipeline.Augmented(crop, jitter, grayscaleP)
}

// Local caching — the alternative the paper's introduction contrasts
// against (limited by local capacity; SOPHON needs none).

// Cache is a byte-capacity cache over sample IDs.
type Cache = cache.Cache

// CacheStats snapshots a cache's counters.
type CacheStats = cache.Stats

// NewLRUCache builds a least-recently-used cache with the given byte
// capacity. LRU collapses to ~zero hits on repeated full-dataset scans —
// part of why caching alone doesn't solve the remote-I/O bottleneck.
func NewLRUCache(capacityBytes int64) (Cache, error) { return cache.NewLRU(capacityBytes) }

// NewNoEvictCache builds the admit-until-full cache DL systems use, which
// sustains a capacity/dataset hit fraction across epochs.
func NewNoEvictCache(capacityBytes int64) (Cache, error) { return cache.NewNoEvict(capacityBytes) }

// NewCachingFetcher wraps a storage client so raw fetches hit the local
// cache first.
func NewCachingFetcher(client *storage.Client, c Cache) *cache.FetchingCache {
	return cache.NewFetchingCache(client, c)
}

// Direct access to the multiplexed transport for callers composing their
// own stacks on top of a cluster.

// StorageClientOptions configures a pipelined storage session: job ID,
// per-request timeout, and the in-flight request cap.
type StorageClientOptions = storage.ClientOptions

// DialStorage opens a multiplexed storage session with explicit options.
// All requests on the returned client pipeline over one connection and
// responses are demultiplexed by request ID.
func DialStorage(addr string, opts StorageClientOptions) (*storage.Client, error) {
	return storage.DialWithOptions(addr, opts)
}

// ApplyCacheToTrace folds a steady-state local cache of capacityBytes into
// a trace copy; plans computed over the result automatically compose
// SOPHON with caching.
func ApplyCacheToTrace(tr *Trace, capacityBytes int64, seed uint64) (*Trace, int) {
	return cache.ApplyToTrace(tr, capacityBytes, seed)
}
