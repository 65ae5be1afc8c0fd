package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
)

// Fleet replay: N concurrent training jobs over ONE shared storage tier —
// the kernel Run drives with a single job, driven with many. Every job keeps
// its own compute pool and accelerator, but all jobs queue on the same
// per-shard storage-CPU pools and links — the contention a multi-tenant
// cluster actually exhibits. A deterministic round-robin interleave (jobs
// issue samples in lockstep, ties broken by admission order) makes same-seed
// replays bit-identical; FleetResult.Digest witnesses it.
//
// The shared cross-job artifact cache is modeled at the compute tier: jobs
// carrying the same non-zero Dataset key train on the same dataset, so once
// any of them has fetched a (sample, cut) artifact, later fetches of that
// key hit local memory — zero storage CPU, zero link bytes. Capacity is
// admit-until-full (the deterministic policy DL caches use under repeated
// full scans).

// FleetJob is one tenant of a fleet replay.
type FleetJob struct {
	Name  string
	Trace *dataset.Trace
	Plan  *policy.Plan
	// Dataset is the artifact share key; jobs with equal non-zero keys must
	// carry traces that agree on shared sample IDs (same dataset). 0 keeps
	// the job's artifacts private.
	Dataset uint64
}

// FleetConfig describes a fleet replay.
type FleetConfig struct {
	Jobs []FleetJob
	// Env supplies the SHARED tier: Bandwidth and StorageCores are the
	// per-shard budgets every job contends for. ComputeCores, GPU, and
	// GPUCount are per-job resources (each job owns its own copy).
	Env policy.Env
	// BatchSize is the per-job GPU batch (0 → 256).
	BatchSize int
	// CacheBytes is the shared cross-job artifact cache capacity; 0
	// disables the cache entirely.
	CacheBytes int64
	// ShuffleSeed permutes each job's visit order (per-job streams derived
	// deterministically); 0 keeps trace order for every job.
	ShuffleSeed uint64
}

// FleetJobResult is one job's slice of a fleet replay.
type FleetJobResult struct {
	Name             string        `json:"name"`
	EpochTime        time.Duration `json:"epoch_time"`
	TrafficBytes     int64         `json:"traffic_bytes"`
	SamplesOffloaded int           `json:"samples_offloaded"`
	CacheHits        int64         `json:"cache_hits"`
	CacheMisses      int64         `json:"cache_misses"`
	BytesSaved       int64         `json:"bytes_saved"`
}

// FleetResult summarizes a fleet replay.
type FleetResult struct {
	Jobs []FleetJobResult `json:"jobs"`
	// Makespan is when the last job finished its epoch.
	Makespan time.Duration `json:"makespan"`
	// AggregateEpochTime sums per-job epoch times — the fleet-level
	// objective the allocator minimizes.
	AggregateEpochTime time.Duration `json:"aggregate_epoch_time"`
	TrafficBytes       int64         `json:"traffic_bytes"`
	StorageBusy        time.Duration `json:"storage_busy"`
	LinkBusy           time.Duration `json:"link_busy"`
	CacheHits          int64         `json:"cache_hits"`
	CacheMisses        int64         `json:"cache_misses"`
	CacheBytesSaved    int64         `json:"cache_bytes_saved"`
	// Digest fingerprints the whole result; equal seeds must produce equal
	// digests (the determinism gate in CI asserts exactly this).
	Digest uint64 `json:"digest"`
}

// CacheHitRate returns hits / (hits + misses) across the fleet.
func (r FleetResult) CacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// RunFleet replays one epoch of every job over the shared tier: the kernel
// with N jobs on the reactive window, every one queueing on the same
// per-shard storage pools and links.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if len(cfg.Jobs) == 0 {
		return FleetResult{}, errors.New("engine: fleet needs jobs")
	}
	if cfg.CacheBytes < 0 {
		return FleetResult{}, fmt.Errorf("engine: cache bytes %d", cfg.CacheBytes)
	}
	var t *tier
	jobs := make([]*job, len(cfg.Jobs))
	seen := make(map[string]bool, len(cfg.Jobs))
	remaining := 0
	for i, fj := range cfg.Jobs {
		if fj.Name == "" {
			return FleetResult{}, fmt.Errorf("engine: fleet job %d has no name", i)
		}
		if seen[fj.Name] {
			return FleetResult{}, fmt.Errorf("engine: duplicate fleet job %q", fj.Name)
		}
		seen[fj.Name] = true
		jc := Config{Trace: fj.Trace, Plan: fj.Plan, Env: cfg.Env, Shards: cfg.Env.ShardCount(), BatchSize: cfg.BatchSize}
		if cfg.ShuffleSeed != 0 {
			// Independent per-job stream so jobs do not march in identical
			// sample order (which would overstate cache locality).
			jc.ShuffleSeed = cfg.ShuffleSeed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		}
		err := jc.resolve()
		if err == nil && t == nil {
			t, err = newTier(jc, cfg.CacheBytes)
		}
		if err != nil {
			return FleetResult{}, fmt.Errorf("engine: fleet job %q: %w", fj.Name, err)
		}
		jobs[i] = newJob(jc, t, fj.Dataset)
		remaining += fj.Trace.N()
	}

	// Deterministic interleave: each step issues the next sample of the job
	// with the earliest loader gate; among equally-gated jobs the one with
	// the fewest issued samples goes first (round-robin), then admission
	// order. With deep prefetch windows this opens as a strict round-robin
	// across the fleet, exactly how concurrent loaders share a tier.
	for ; remaining > 0; remaining-- {
		var best *job
		var bestGate time.Duration
		for _, j := range jobs {
			if j.next >= len(j.order) {
				continue
			}
			if g := j.gate(); best == nil || g < bestGate || (g == bestGate && j.next < best.next) {
				best, bestGate = j, g
			}
		}
		best.step()
	}

	out := FleetResult{Jobs: make([]FleetJobResult, len(jobs))}
	h := fnv.New64a()
	for i, j := range jobs {
		r := FleetJobResult{
			Name:             cfg.Jobs[i].Name,
			EpochTime:        j.gpu.last,
			TrafficBytes:     j.traffic,
			SamplesOffloaded: j.cfg.Plan.OffloadedCount(),
			CacheHits:        j.cacheHits,
			CacheMisses:      j.cacheMisses,
			BytesSaved:       j.cacheSaved,
		}
		out.Jobs[i] = r
		out.AggregateEpochTime += r.EpochTime
		out.TrafficBytes += r.TrafficBytes
		out.CacheHits += r.CacheHits
		out.CacheMisses += r.CacheMisses
		out.CacheBytesSaved += r.BytesSaved
		out.Makespan = max(out.Makespan, r.EpochTime)
		fmt.Fprintf(h, "%s|%d|%d|%d|%d\n", r.Name, r.EpochTime.Nanoseconds(),
			r.TrafficBytes, r.CacheHits, r.BytesSaved)
	}
	out.StorageBusy, out.LinkBusy = t.busy()
	fmt.Fprintf(h, "agg|%d|%d\n", out.AggregateEpochTime.Nanoseconds(), out.TrafficBytes)
	out.Digest = h.Sum64()
	return out, nil
}
