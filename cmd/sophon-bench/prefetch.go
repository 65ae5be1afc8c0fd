package main

// The -prefetch mode: the clairvoyant-vs-reactive loader comparison on an
// I/O-bound sharded epoch. Both runs replay the identical shuffled access
// stream through the discrete-event engine; the only difference is the
// loader model — a reactive global prefetch window versus per-shard
// lookahead issue queues. The JSON report (BENCH_pr8.json) records epoch
// time and per-link idle for both, and the speedup.

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// The comparison BENCH_pr8.json records: one 8 000-sample epoch over eight
// shards, the clairvoyant run at a per-shard lookahead depth of 16.
const (
	prefetchSamples = 8000
	prefetchShards  = 8
	prefetchDepth   = 16
)

// prefetchMode is one loader model's measured epoch.
type prefetchMode struct {
	EpochSeconds       float64   `json:"epoch_seconds"`
	LinkIdleFrac       float64   `json:"link_idle_frac"`
	PerLinkIdleSeconds []float64 `json:"per_link_idle_seconds"`
	TrafficMB          float64   `json:"traffic_mb"`
	GPUUtilization     float64   `json:"gpu_utilization"`
}

// prefetchReport is the JSON shape of BENCH_pr8.json.
type prefetchReport struct {
	Kind        string       `json:"kind"` // always "BENCH"
	PR          int          `json:"pr"`
	Description string       `json:"description"`
	GoVersion   string       `json:"go_version"`
	Samples     int          `json:"samples"`
	Shards      int          `json:"shards"`
	BatchSize   int          `json:"batch_size"`
	Depth       int          `json:"lookahead_depth"`
	Reactive    prefetchMode `json:"reactive"`
	Clairvoyant prefetchMode `json:"clairvoyant"`
	// PrefetchSpeedup is reactive epoch time / clairvoyant epoch time.
	PrefetchSpeedup float64 `json:"prefetch_speedup"`
}

func modeOf(r engine.Result) prefetchMode {
	m := prefetchMode{
		EpochSeconds:   r.EpochTime.Seconds(),
		LinkIdleFrac:   r.LinkIdleFrac,
		TrafficMB:      float64(r.TrafficBytes) / (1 << 20),
		GPUUtilization: r.GPUUtilization,
	}
	for _, d := range r.PerLinkIdle {
		m.PerLinkIdleSeconds = append(m.PerLinkIdleSeconds, d.Seconds())
	}
	return m
}

// writePrefetchJSON runs the comparison and writes the report. The workload
// is the paper's I/O-bound regime: AlexNet over OpenImages with no
// offloading, so the shard links are the binding resource and any time a
// link sits idle is epoch time lost. The reactive run uses the engine's
// default window (4× the GPU batch) — the point of the comparison is that a
// fixed global window leaves links idle as the shard fan-out grows, while
// per-shard lookahead depth keeps every link saturated at any fan-out.
func writePrefetchJSON(path string, seed uint64) error {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(prefetchSamples), seed)
	if err != nil {
		return err
	}
	plan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
	if err != nil {
		return err
	}
	env := policy.Env{
		Bandwidth:       netsim.Mbps(500), // the paper's storage link, per shard
		ComputeCores:    48,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	base := engine.Config{
		Trace:       tr,
		Plan:        plan,
		Env:         env,
		Shards:      prefetchShards,
		ShuffleSeed: seed,
		BatchSize:   64,
		RTT:         200 * time.Microsecond,
	}
	reactive, err := engine.Run(base)
	if err != nil {
		return err
	}
	la := base
	la.Lookahead = prefetchDepth
	clair, err := engine.Run(la)
	if err != nil {
		return err
	}
	report := prefetchReport{
		Kind: "BENCH",
		PR:   8,
		Description: "Clairvoyant shard-aware prefetching: per-shard lookahead issue queues vs the " +
			"reactive global prefetch window on an I/O-bound sharded epoch (No-Off plan, AlexNet). " +
			"Regenerate with `sophon-bench -prefetch <file>`.",
		GoVersion:       runtime.Version(),
		Samples:         tr.N(),
		Shards:          prefetchShards,
		BatchSize:       base.BatchSize,
		Depth:           prefetchDepth,
		Reactive:        modeOf(reactive),
		Clairvoyant:     modeOf(clair),
		PrefetchSpeedup: reactive.EpochTime.Seconds() / clair.EpochTime.Seconds(),
	}
	if err := writeJSON(path, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sophon-bench: prefetch: reactive %.2fs (%.1f%% link idle) vs clairvoyant %.2fs (%.2f%% link idle), %.3fx\n",
		report.Reactive.EpochSeconds, 100*report.Reactive.LinkIdleFrac,
		report.Clairvoyant.EpochSeconds, 100*report.Clairvoyant.LinkIdleFrac,
		report.PrefetchSpeedup)
	return nil
}
