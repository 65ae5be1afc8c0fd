package main

// The -fleet scenario: 100 training jobs (20 datasets × 5 tenants) contend
// for one shared storage tier. Two planning regimes run through the SAME
// deterministic fleet replay with the cross-job artifact cache:
//
//   - independent: every job plans with SOPHON as if it owned the whole
//     tier (full link, full core budget) — N single-job planners.
//   - coordinated: sched.Allocate plans every job on its even share of the
//     link (link ÷ jobs, the split the live tier gives concurrent tenants)
//     and water-fills the cores, so every plan reflects the contention it
//     will actually see.
//
// The report records both replays plus the determinism check: the
// coordinated replay runs twice and the digests must match bit-for-bit
// (CI additionally regenerates the report and requires BENCH_pr6.json's
// bytes, TestCommittedRecords).

import (
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/sched"
)

const (
	fleetDatasets      = 20
	fleetTenantsPerSet = 5
	fleetSamples       = 400
	fleetCores         = 16
	fleetLinkMbps      = 2000
	fleetCacheBytes    = 1 << 30
)

// fleetSide is one planning regime's slice of the report.
type fleetSide struct {
	AggregateEpochSeconds float64 `json:"aggregate_epoch_seconds"`
	MakespanSeconds       float64 `json:"makespan_seconds"`
	TrafficGB             float64 `json:"traffic_gb"`
	CacheHits             int64   `json:"cache_hits"`
	CacheHitRate          float64 `json:"cache_hit_rate"`
	CacheBytesSavedGB     float64 `json:"cache_bytes_saved_gb"`
	Digest                string  `json:"digest"`
}

type fleetReport struct {
	Kind          string  `json:"kind"` // always "BENCH"
	PR            int     `json:"pr"`
	Description   string  `json:"description"`
	GoVersion     string  `json:"go_version"`
	Jobs          int     `json:"jobs"`
	Datasets      int     `json:"datasets"`
	SamplesPerJob int     `json:"samples_per_job"`
	SharedCores   int     `json:"shared_cores"`
	SharedMbps    float64 `json:"shared_link_mbps"`

	Coordinated fleetSide `json:"coordinated"`
	Independent fleetSide `json:"independent"`
	// CoordinatedSpeedup is independent/coordinated aggregate epoch time
	// (>1 means coordinated planning beats N independent planners).
	CoordinatedSpeedup float64 `json:"coordinated_speedup"`
	// DeterminismOK records that two same-seed coordinated replays produced
	// identical digests; the command exits non-zero when they differ.
	DeterminismOK bool `json:"determinism_ok"`
}

func side(r engine.FleetResult) fleetSide {
	return fleetSide{
		AggregateEpochSeconds: r.AggregateEpochTime.Seconds(),
		MakespanSeconds:       r.Makespan.Seconds(),
		TrafficGB:             float64(r.TrafficBytes) / 1e9,
		CacheHits:             r.CacheHits,
		CacheHitRate:          r.CacheHitRate(),
		CacheBytesSavedGB:     float64(r.CacheBytesSaved) / 1e9,
		Digest:                fmt.Sprintf("%016x", r.Digest),
	}
}

func writeFleetJSON(path string, seed uint64) error {
	// Per-tenant resources; the tier-wide link and core budgets are shared.
	tenantEnv := policy.Env{
		Bandwidth:       netsim.Mbps(fleetLinkMbps),
		ComputeCores:    8,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	tierEnv := tenantEnv
	tierEnv.StorageCores = fleetCores

	// 20 datasets, 5 tenants each: tenants of one dataset share a trace
	// (same data, same profile) and a share key, so their artifacts overlap.
	type tenantSpec struct {
		name    string
		trace   *dataset.Trace
		dataset uint64
	}
	var specs []tenantSpec
	for d := 0; d < fleetDatasets; d++ {
		tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(fleetSamples), seed+uint64(d))
		if err != nil {
			return err
		}
		for j := 0; j < fleetTenantsPerSet; j++ {
			specs = append(specs, tenantSpec{
				name:    fmt.Sprintf("ds%02d-job%d", d, j),
				trace:   tr,
				dataset: uint64(d + 1),
			})
		}
	}

	// Independent regime: each job plans as if alone on the tier.
	soloEngine := policy.NewSophon()
	independent := make([]engine.FleetJob, len(specs))
	for i, s := range specs {
		plan, err := soloEngine.Plan(s.trace, tierEnv)
		if err != nil {
			return fmt.Errorf("independent plan %s: %w", s.name, err)
		}
		independent[i] = engine.FleetJob{Name: s.name, Trace: s.trace, Plan: plan, Dataset: s.dataset}
	}

	// Coordinated regime: one allocation over every job, each planned on
	// the even link share the tier gives it (link ÷ jobs) and water-filled
	// cores.
	jobs := make([]sched.Job, len(specs))
	for i, s := range specs {
		env := tenantEnv
		env.Bandwidth /= float64(len(specs))
		jobs[i] = sched.Job{Name: s.name, Trace: s.trace, Env: env}
	}
	alloc, err := sched.Allocate(jobs, fleetCores, nil)
	if err != nil {
		return err
	}
	coordinated := make([]engine.FleetJob, len(specs))
	for i, s := range specs {
		coordinated[i] = engine.FleetJob{Name: s.name, Trace: s.trace, Plan: alloc.Plans[s.name], Dataset: s.dataset}
	}

	replay := func(jobs []engine.FleetJob) (engine.FleetResult, error) {
		return engine.RunFleet(engine.FleetConfig{
			Jobs:        jobs,
			Env:         tierEnv,
			BatchSize:   32,
			CacheBytes:  fleetCacheBytes,
			ShuffleSeed: seed,
		})
	}
	coordRes, err := replay(coordinated)
	if err != nil {
		return fmt.Errorf("coordinated replay: %w", err)
	}
	coordRes2, err := replay(coordinated)
	if err != nil {
		return fmt.Errorf("coordinated replay (2nd): %w", err)
	}
	indepRes, err := replay(independent)
	if err != nil {
		return fmt.Errorf("independent replay: %w", err)
	}

	// The description keeps the words BENCH_pr6.json was written with.
	report := fleetReport{
		Kind: "BENCH",
		PR:   6,
		Description: "Fleet control plane: 100 jobs (20 datasets × 5 tenants) on one shared tier. " +
			"Coordinated = fleet coordinator (weighted fair bandwidth + water-filled cores); " +
			"independent = each job planned as if alone. Both replayed through the deterministic " +
			"fleet DES with the cross-job artifact cache. Regenerate with `sophon-bench -fleet <file>`.",
		GoVersion:          runtime.Version(),
		Jobs:               len(specs),
		Datasets:           fleetDatasets,
		SamplesPerJob:      fleetSamples,
		SharedCores:        fleetCores,
		SharedMbps:         fleetLinkMbps,
		Coordinated:        side(coordRes),
		Independent:        side(indepRes),
		CoordinatedSpeedup: indepRes.AggregateEpochTime.Seconds() / coordRes.AggregateEpochTime.Seconds(),
		DeterminismOK:      coordRes.Digest == coordRes2.Digest,
	}
	if err := writeJSON(path, report); err != nil {
		return err
	}
	if !report.DeterminismOK {
		return fmt.Errorf("fleet replay not deterministic: %016x vs %016x", coordRes.Digest, coordRes2.Digest)
	}
	if report.CoordinatedSpeedup <= 1 {
		return fmt.Errorf("coordinated planning (%.1fs aggregate) did not beat independent planning (%.1fs)",
			report.Coordinated.AggregateEpochSeconds, report.Independent.AggregateEpochSeconds)
	}
	if coordRes.CacheHits == 0 {
		return fmt.Errorf("overlapping-dataset tenants produced no cross-job cache hits")
	}
	return nil
}
