// Command sophon-bench regenerates every table and figure from the paper's
// evaluation section and writes the report to stdout (or a file).
//
// Usage:
//
//	sophon-bench [-seed N] [-openimages N] [-imagenet N] [-o report.txt]
//
// With no size overrides the datasets run at paper scale (40 000 OpenImages
// samples, 91 000 ImageNet samples); the whole suite still completes in a
// few seconds because the evaluation replays profiled traces through the
// discrete-event engine.
//
// With -adaptive the command instead runs the adaptive control-plane
// scenario — the storage link reshaped 500→250 Mbps mid-run, the controller
// replanning at the next epoch boundary — and writes a JSON report comparing
// adaptive, static, and oracle epoch times (the contents of BENCH_pr5.json).
//
// With -fleet the command instead runs the multi-tenant fleet scenario — 100
// jobs (20 datasets × 5 tenants) planned together, each on its even share of
// the tier's link, versus 100 independent single-job planners, both
// replayed through the deterministic fleet DES with the cross-job artifact
// cache — and writes a JSON comparison (the contents of BENCH_pr6.json). The
// coordinated replay runs twice; mismatching digests fail the command.
//
// With -load the command instead runs the heavy-traffic serving harness:
// thousands of open-loop sessions (Poisson and bursty arrivals, job profiles
// drawn from planned traces) against the simulated sharded tier, once at
// ~65% of link capacity and once at 2.6x capacity behind admission control.
// The output is a versioned SLO record — p50/p90/p99/p999 per fetch class
// (cache hit / offloaded / raw) plus throughput and shed rates — the
// contents of BENCH_pr7.json.
//
// With -prefetch the command instead runs the clairvoyant-vs-reactive loader
// comparison on an I/O-bound sharded epoch — per-shard lookahead issue queues
// against the reactive global prefetch window, same shuffled stream — and
// writes a JSON report with epoch times and per-link idle fractions (the
// contents of BENCH_pr8.json).
//
// With -prepsched the command instead runs the variance-aware preprocessing
// scheduler comparison on a compute-bound epoch with a skewed heavy/light
// cost mix — per-worker work-stealing deques against static FIFO assignment,
// same shuffled stream — and writes a JSON report with epoch times,
// per-worker stall fractions, and steal counts (the contents of
// BENCH_pr9.json).
//
// With -chaos.seed the command instead runs the deterministic chaos soak: a
// trainer over a fault-injected sharded storage tier, checked against a
// fault-free reference for bit-identical artifacts and exact failure
// accounting. One JSON report per soak is written to stdout; -chaos.duration
// keeps soaking with deterministically derived seeds until the budget runs
// out, and -chaos.class picks the fault mix. A failing soak's report carries
// the seed and plan digest needed to replay it exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/soak"
)

// writeJSON writes v to path in the form every committed record has:
// two-space indented JSON and a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// adaptiveReport is the JSON shape of the adaptive control-plane scenario:
// the link is reshaped 500→250 Mbps after epoch 2 and the adaptive run is
// compared against the frozen initial plan and against an oracle planned
// directly for the degraded link.
type adaptiveReport struct {
	Kind        string  `json:"kind"` // always "BENCH"
	PR          int     `json:"pr"`
	Description string  `json:"description"`
	GoVersion   string  `json:"go_version"`
	Samples     int     `json:"samples"`
	BaseMbps    float64 `json:"base_mbps"`
	ReshapeMbps float64 `json:"reshape_mbps"`
	// ReshapeEpoch is the first epoch the degraded link applies to.
	ReshapeEpoch uint64             `json:"reshape_epoch"`
	Adaptive     []core.SimEpoch    `json:"adaptive_epochs"`
	Static       []core.SimEpoch    `json:"static_epochs"`
	History      []core.ReplanEvent `json:"replan_history"`
	// OracleEpochSeconds is one degraded epoch under the oracle plan.
	OracleEpochSeconds float64 `json:"oracle_epoch_seconds"`
	// AdaptiveVsOracle and StaticVsAdaptive summarize the post-replan tail:
	// mean epoch-time ratios (1.0 = parity; lower is better for the first).
	AdaptiveVsOracle float64 `json:"adaptive_vs_oracle"`
	StaticVsAdaptive float64 `json:"static_vs_adaptive"`
}

func writeAdaptiveJSON(path string, seed uint64) error {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(2000), seed)
	if err != nil {
		return err
	}
	// Two storage cores keep the offload crossover bandwidth-dependent (with
	// plentiful cores the same plan is optimal at every link rate and the
	// scenario shows nothing).
	env := policy.Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	const epochs = 6
	const reshapeEpoch = 3
	degraded := env
	degraded.Bandwidth = netsim.Mbps(250)
	envAt := func(e uint64) policy.Env {
		if e >= reshapeEpoch {
			return degraded
		}
		return env
	}
	cfg := core.SimConfig{
		Trace: tr, Env: env, Epochs: epochs, EnvAt: envAt, Adaptive: true,
		Drift: profiler.DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 1},
	}
	adaptive, err := core.RunAdaptiveSim(cfg)
	if err != nil {
		return err
	}
	staticCfg := cfg
	staticCfg.Adaptive = false
	static, err := core.RunAdaptiveSim(staticCfg)
	if err != nil {
		return err
	}
	oracleDecision, err := core.New().Decide(tr, degraded)
	if err != nil {
		return err
	}
	oracle, err := engine.Run(engine.Config{Trace: tr, Plan: oracleDecision.Plan, Env: degraded})
	if err != nil {
		return err
	}

	// Post-replan tail: every epoch after the boundary the replan landed on.
	tailFrom := adaptive.History[len(adaptive.History)-1].Epoch
	var aSum, sSum, n float64
	for i := range adaptive.Epochs {
		if adaptive.Epochs[i].Epoch < tailFrom {
			continue
		}
		aSum += adaptive.Epochs[i].EpochTime.Seconds()
		sSum += static.Epochs[i].EpochTime.Seconds()
		n++
	}
	report := adaptiveReport{
		Kind: "BENCH",
		PR:   5,
		Description: "Adaptive control plane: link reshaped 500→250 Mbps after epoch 2; " +
			"the controller replans at the next boundary and converges on the oracle plan. " +
			"Regenerate with `sophon-bench -adaptive <file>`.",
		GoVersion:          runtime.Version(),
		Samples:            tr.N(),
		BaseMbps:           500,
		ReshapeMbps:        250,
		ReshapeEpoch:       reshapeEpoch,
		Adaptive:           adaptive.Epochs,
		Static:             static.Epochs,
		History:            adaptive.History,
		OracleEpochSeconds: oracle.EpochTime.Seconds(),
		AdaptiveVsOracle:   aSum / (n * oracle.EpochTime.Seconds()),
		StaticVsAdaptive:   sSum / aSum,
	}
	return writeJSON(path, report)
}

// runChaos soaks until the duration budget is spent (always at least once),
// printing one JSON report per run on stdout and one line per failed soak on
// the log. It returns an error if any soak failed.
func runChaos(stdout io.Writer, logger *log.Logger, seed uint64, class soak.Class, duration time.Duration) error {
	enc := json.NewEncoder(stdout)
	deadline := time.Now().Add(duration)
	failed := 0
	for {
		rep, err := soak.Run(soak.Config{Seed: seed, Class: class})
		if err != nil {
			return fmt.Errorf("soak seed=%d: %w", seed, err)
		}
		enc.Encode(rep)
		if !rep.Ok() {
			logger.Printf("soak seed=%d digest=%08x FAILED: %d mismatches, %d failed (want %d)",
				seed, rep.Digest, rep.Mismatches, rep.Failed, rep.WantFailed)
			failed++
		}
		if !time.Now().Before(deadline) {
			break
		}
		seed = seed*0x9E3779B97F4A7C15 + 1 // same derivation as the soak test suite
	}
	if failed > 0 {
		return fmt.Errorf("%d soaks failed", failed)
	}
	return nil
}

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		log.New(os.Stderr, "sophon-bench: ", 0).Fatal(err)
	}
}

// run is the command: flags declared on fs (main's exits on a bad command
// line, a test's returns the error), the log on fs.Output(), the evaluation
// report and the chaos reports on stdout. At most one mode flag may be set;
// with none it runs the evaluation.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	seed := fs.Uint64("seed", 2024, "random seed for dataset generation")
	openImages := fs.Int("openimages", 0, "OpenImages sample-count override (0 = paper scale, 40000)")
	imageNet := fs.Int("imagenet", 0, "ImageNet sample-count override (0 = paper scale, 91000)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	csvDir := fs.String("csv", "", "also write one CSV per table into this directory")
	chaosSeed := fs.Uint64("chaos.seed", 0, "run the deterministic chaos soak with this fault seed instead of the evaluation")
	chaosClass := fs.String("chaos.class", "mixed", "chaos soak fault class: none|delays|corrupt|mixed|partition")
	chaosDuration := fs.Duration("chaos.duration", 0, "keep soaking with derived seeds until this much time has passed")
	adaptiveOut := fs.String("adaptive", "", "run the adaptive control-plane scenario (500→250 Mbps reshape) and write the JSON report to this file (skips the evaluation)")
	prefetchOut := fs.String("prefetch", "", "run the clairvoyant-vs-reactive prefetch comparison and write the JSON report to this file (skips the evaluation)")
	prepschedOut := fs.String("prepsched", "", "run the work-stealing-vs-FIFO preprocessing scheduler comparison and write the JSON report to this file (skips the evaluation)")
	fleetOut := fs.String("fleet", "", "run the 100-job fleet scenario (coordinated vs independent planning on a shared tier) and write the JSON report to this file (skips the evaluation)")
	fidelityOut := fs.String("fidelity", "", "run the progressive-fidelity evaluation (discrete vs fidelity-aware SOPHON plan, ladder calibrated from the live codec) and write the JSON report to this file (skips the evaluation)")
	loadOut := fs.String("load", "", "run the heavy-traffic load harness (steady + overload scenarios) and write the SLO record to this file (skips the evaluation)")
	if done, err := cliutil.ParseArgs(fs, args, "sophon-bench", "Regenerates the paper's evaluation tables and simulator records, or runs the chaos soak."); done || err != nil {
		return err
	}

	logger := log.New(fs.Output(), "sophon-bench: ", 0)
	if err := cliutil.IntError(fs, nil,
		map[string]bool{"openimages": true, "imagenet": true},
		map[string]int{"openimages": *openImages, "imagenet": *imageNet}); err != nil {
		return err
	}
	class, err := soak.ParseClass(*chaosClass)
	if err != nil {
		return err
	}

	var modes []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "adaptive", "chaos.seed", "fidelity", "fleet", "load", "prefetch", "prepsched":
			if f.Value.String() != f.DefValue {
				modes = append(modes, "-"+f.Name)
			}
		}
	})
	if len(modes) > 1 {
		return fmt.Errorf("%s each replace the evaluation: one a run", strings.Join(modes, " and "))
	}

	// The seeded simulator scenarios: each writes one JSON record to the path
	// its flag names.
	for _, sc := range []struct {
		out, what string
		write     func(path string, seed uint64) error
	}{
		{*loadOut, "SLO record", writeLoadJSON},
		{*fidelityOut, "fidelity comparison", writeFidelityJSON},
		{*fleetOut, "fleet scenario", writeFleetJSON},
		{*prepschedOut, "prepsched comparison", writePrepschedJSON},
		{*prefetchOut, "prefetch comparison", writePrefetchJSON},
		{*adaptiveOut, "adaptive scenario", writeAdaptiveJSON},
	} {
		if sc.out == "" {
			continue
		}
		if err := sc.write(sc.out, *seed); err != nil {
			return err
		}
		logger.Printf("%s written to %s", sc.what, sc.out)
		return nil
	}
	if *chaosSeed != 0 {
		return runChaos(stdout, logger, *chaosSeed, class, *chaosDuration)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		stdout = f
	}
	opts := eval.Options{Seed: *seed, OpenImages: *openImages, ImageNet: *imageNet}
	if err := eval.RunAll(opts, stdout); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := eval.WriteCSVDir(opts, *csvDir); err != nil {
			return err
		}
		logger.Printf("CSVs written to %s", *csvDir)
	}
	return nil
}
