package main

// The -prepsched mode: the variance-aware preprocessing scheduler comparison
// on a compute-bound skewed epoch. Both runs replay the identical shuffled
// stream through the discrete-event engine with per-worker preprocessing
// queues; the only difference is the dispatch model — static FIFO assignment
// (head-of-line blocking behind heavy samples) versus work-stealing. The
// JSON report (BENCH_pr9.json) records epoch time, per-worker stall
// fraction, and steal counts for both, and the speedup.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// The comparison BENCH_pr9.json records: 2 000 samples on eight workers (and
// compute cores), 5 % of them 20× as expensive in every op, classified heavy
// at prepsched's default threshold (a HeavyRatio of 0).
const (
	prepschedSamples   = 2000
	prepschedWorkers   = 8
	prepschedHeavyFrac = 0.05
	prepschedCostRatio = 20
	prepschedThreshold = 0.0
)

// prepschedMode is one dispatch model's measured epoch.
type prepschedMode struct {
	EpochSeconds         float64   `json:"epoch_seconds"`
	WorkerStallFrac      float64   `json:"worker_stall_frac"`
	PerWorkerIdleSeconds []float64 `json:"per_worker_idle_seconds"`
	Steals               int       `json:"steals"`
	TrafficMB            float64   `json:"traffic_mb"`
}

// prepschedReport is the JSON shape of BENCH_pr9.json.
type prepschedReport struct {
	Kind        string  `json:"kind"` // always "BENCH"
	PR          int     `json:"pr"`
	Description string  `json:"description"`
	GoVersion   string  `json:"go_version"`
	Samples     int     `json:"samples"`
	Workers     int     `json:"workers"`
	HeavyFrac   float64 `json:"heavy_frac"`
	CostRatio   int     `json:"cost_ratio"`
	// HeavyRatio is the classifier threshold as a multiple of the mean
	// per-sample cost (0 = prepsched's default).
	HeavyRatio float64 `json:"heavy_threshold_ratio,omitempty"`
	// HeavySamples is the classifier's heavy count — identical across modes
	// by construction (classification is scheduling-independent).
	HeavySamples int           `json:"heavy_samples"`
	FIFO         prepschedMode `json:"fifo"`
	Steal        prepschedMode `json:"steal"`
	// PrepschedSpeedup is FIFO epoch time / steal epoch time.
	PrepschedSpeedup float64 `json:"prepsched_speedup"`
}

func prepschedModeOf(r engine.Result) prepschedMode {
	m := prepschedMode{
		EpochSeconds:    r.EpochTime.Seconds(),
		WorkerStallFrac: r.WorkerStallFrac,
		Steals:          r.Steals,
		TrafficMB:       float64(r.TrafficBytes) / (1 << 20),
	}
	for _, d := range r.PerWorkerIdle {
		m.PerWorkerIdleSeconds = append(m.PerWorkerIdleSeconds, d.Seconds())
	}
	return m
}

// skewedTrace makes heavyFrac of the samples costRatio× more expensive in
// every preprocessing op — the service-time mix the comparison is about. The
// heavy set is chosen by a seeded PCG so heavy samples land spread across
// stream positions rather than clustered.
func skewedTrace(n int, heavyFrac float64, costRatio int, seed uint64) (*dataset.Trace, error) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(n), seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	heavy := int(float64(n) * heavyFrac)
	for _, i := range rng.Perm(n)[:heavy] {
		for op := range tr.Records[i].OpTimes {
			tr.Records[i].OpTimes[op] *= time.Duration(costRatio)
		}
	}
	return tr, nil
}

// writePrepschedJSON runs the comparison and writes the report. The workload
// is deliberately compute-bound (the link rate is scaled far past need): the
// binding resource is the per-worker preprocessing queue, so any time a
// worker idles behind another's heavy sample is epoch time lost. FIFO pins
// sample i to worker i mod W; steal lets an idle worker take the queued work
// from the loaded one's tail.
func writePrepschedJSON(path string, seed uint64) error {
	tr, err := skewedTrace(prepschedSamples, prepschedHeavyFrac, prepschedCostRatio, seed)
	if err != nil {
		return err
	}
	plan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
	if err != nil {
		return err
	}
	env := policy.Env{
		Bandwidth:       netsim.Mbps(500) * 1000, // never the bottleneck
		ComputeCores:    prepschedWorkers,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	base := engine.Config{
		Trace:       tr,
		Plan:        plan,
		Env:         env,
		ShuffleSeed: seed,
		BatchSize:   64,
		Lookahead:   8,
		PrepWorkers: prepschedWorkers,
		HeavyRatio:  prepschedThreshold,
	}
	fifoCfg := base
	fifoCfg.PrepSched = engine.PrepSchedFIFO
	fifo, err := engine.Run(fifoCfg)
	if err != nil {
		return err
	}
	stealCfg := base
	stealCfg.PrepSched = engine.PrepSchedSteal
	steal, err := engine.Run(stealCfg)
	if err != nil {
		return err
	}
	if fifo.TrafficBytes != steal.TrafficBytes || fifo.HeavySamples != steal.HeavySamples {
		return fmt.Errorf("prepsched: scheduling changed the workload: traffic %d/%d heavy %d/%d",
			fifo.TrafficBytes, steal.TrafficBytes, fifo.HeavySamples, steal.HeavySamples)
	}
	report := prepschedReport{
		Kind: "BENCH",
		PR:   9,
		Description: "Variance-aware preprocessing scheduler: per-worker work-stealing deques vs static " +
			"FIFO assignment on a compute-bound epoch with a skewed heavy/light cost mix (No-Off plan, " +
			"AlexNet). Regenerate with `sophon-bench -prepsched <file>`.",
		GoVersion:        runtime.Version(),
		Samples:          tr.N(),
		Workers:          prepschedWorkers,
		HeavyFrac:        prepschedHeavyFrac,
		CostRatio:        prepschedCostRatio,
		HeavyRatio:       prepschedThreshold,
		HeavySamples:     steal.HeavySamples,
		FIFO:             prepschedModeOf(fifo),
		Steal:            prepschedModeOf(steal),
		PrepschedSpeedup: fifo.EpochTime.Seconds() / steal.EpochTime.Seconds(),
	}
	if err := writeJSON(path, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sophon-bench: prepsched: fifo %.2fs (%.1f%% worker stall) vs steal %.2fs (%.1f%% worker stall, %d steals), %.3fx\n",
		report.FIFO.EpochSeconds, 100*report.FIFO.WorkerStallFrac,
		report.Steal.EpochSeconds, 100*report.Steal.WorkerStallFrac,
		report.Steal.Steals, report.PrepschedSpeedup)
	return nil
}
