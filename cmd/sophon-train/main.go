// Command sophon-train is the compute-node half: it connects to a running
// sophon-server, runs the two-stage profiler (stage 1 throughput probes,
// stage 2 on-the-fly per-sample profiling during epoch 1), asks the chosen
// policy for an offload plan, and trains the remaining epochs under it.
//
// Usage:
//
//	sophon-train -addr 127.0.0.1:7070 -epochs 3 -policy sophon -mbps 500
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

func pickPolicy(name string) (policy.Policy, error) {
	switch strings.ToLower(name) {
	case "sophon":
		return policy.NewSophon(), nil
	case "sophon-guard":
		return &policy.Sophon{StepGuard: true}, nil
	case "nooff", "no-off":
		return policy.NoOff{}, nil
	case "alloff", "all-off":
		return policy.AllOff{}, nil
	case "resizeoff", "resize-off":
		return policy.ResizeOff{}, nil
	case "fastflow":
		return policy.FastFlow{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		log.New(os.Stderr, "sophon-train: ", log.LstdFlags).Fatal(err)
	}
}

// run is the command: flags declared on fs (main's exits on a bad command
// line, a test's returns the error), the log on fs.Output(), one line per
// epoch on stdout. It returns once the trainer has closed its session.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	addr := fs.String("addr", "127.0.0.1:7070", "storage server address")
	jobID := fs.Uint64("job", 1, "job id (seeds augmentations)")
	workers := fs.Int("workers", 4, "loader workers")
	computeCores := fs.Int("compute-cores", 0, "local preprocessing cores (0 = workers)")
	batch := fs.Int("batch", 32, "GPU batch size")
	epochs := fs.Int("epochs", 3, "epochs to train (epoch 1 profiles)")
	modelName := fs.String("model", "alexnet", "GPU model profile (alexnet|resnet18|resnet50)")
	policyName := fs.String("policy", "sophon", "offload policy (sophon|sophon-guard|nooff|alloff|resizeoff|fastflow)")
	crop := fs.Int("crop", 224, "RandomResizedCrop output side (must match server)")
	mbps := fs.Float64("mbps", 500, "assumed link bandwidth for planning (Mbit/s)")
	storageCores := fs.Int("storage-cores", 4, "assumed storage-node preprocessing cores for planning")
	probeBatches := fs.Int("probe-batches", 50, "stage-1 probe batches")
	planFile := fs.String("plan-file", "", "load a precomputed plan and skip profiling")
	fetchBatch := fs.Int("fetch-batch", 0, "samples per storage round trip (0 = one)")
	lookahead := fs.Int("lookahead", 0, "fetch round trips kept in flight per shard (0 = 2x workers)")
	lookaheadHorizon := fs.Int("lookahead-horizon", 0, "max stream positions fetched ahead of consumption (0 = 8 x lookahead x fetch-batch x shards)")
	stagingBytes := fs.Int64("staging-bytes", 0, "soft byte budget for staged prefetched artifacts (0 = 64 MiB)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent requests the session admits (0 = default 64)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request timeout (0 = default 30s, negative = none)")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard server addresses (overrides -addr; enables the fan-out client)")
	attempts := fs.Int("attempts", 3, "per-operation tries on each shard session before giving up")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "pause before each shard redial")
	degraded := fs.Bool("degraded", false, "degraded mode: skip samples of unreachable shards instead of aborting the epoch")
	adaptive := fs.Bool("adaptive", false, "adaptive control plane: re-probe the link each epoch and replan on drift (sophon policies only)")
	driftThreshold := fs.Float64("drift-threshold", 0, "relative change that counts as drift (0 = default 0.2)")
	driftHysteresis := fs.Int("drift-hysteresis", 0, "consecutive drifted epochs before replanning (0 = default 2)")
	if done, err := cliutil.ParseArgs(fs, args, "sophon-train", "Profiles, plans, and trains against a running sophon-server under an offload policy."); done || err != nil {
		return err
	}

	logger := log.New(fs.Output(), "sophon-train: ", log.LstdFlags)
	if err := cliutil.IntError(fs,
		map[string]bool{"workers": true, "batch": true, "epochs": true, "attempts": true},
		map[string]bool{"max-inflight": true, "fetch-batch": true, "compute-cores": true, "lookahead": true, "lookahead-horizon": true},
		map[string]int{
			"workers": *workers, "batch": *batch, "epochs": *epochs, "attempts": *attempts,
			"max-inflight": *maxInFlight, "fetch-batch": *fetchBatch, "compute-cores": *computeCores,
			"lookahead": *lookahead, "lookahead-horizon": *lookaheadHorizon,
		}); err != nil {
		return err
	}
	if *stagingBytes < 0 {
		return fmt.Errorf("-staging-bytes must be >= 0, got %d", *stagingBytes)
	}

	model, err := gpu.ByName(*modelName)
	if err != nil {
		return err
	}
	pol, err := pickPolicy(*policyName)
	if err != nil {
		return err
	}

	opts := storage.ClientOptions{
		JobID:          *jobID,
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *maxInFlight,
	}
	// Single-addr mode gets the same retry wrapper as the sharded fan-out:
	// without it, an admission-control rejection (server shedding load)
	// surfaces to the trainer instead of being retried after the hint.
	dial := func() (storage.Fetcher, error) {
		return storage.NewReconnecting(func() (*storage.Client, error) {
			return storage.DialWithOptions(*addr, opts)
		}, *attempts, *backoff, nil)
	}
	nShards := 1
	if *shardAddrs != "" {
		addrs := strings.Split(*shardAddrs, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
			if addrs[i] == "" {
				return fmt.Errorf("-shard-addrs entry %d is empty", i)
			}
		}
		nShards = len(addrs)
		m, err := cluster.NewShardMap(nShards)
		if err != nil {
			return err
		}
		dial = func() (storage.Fetcher, error) {
			sc, err := cluster.DialSharded(m, func(s int) (*storage.Client, error) {
				c, err := storage.DialWithOptions(addrs[s], opts)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", addrs[s], err)
				}
				return c, nil
			}, *attempts, *backoff, *degraded)
			if err != nil {
				return nil, err
			}
			return sc, nil
		}
		logger.Printf("fan-out client over %d shards (degraded=%v)", nShards, *degraded)
	}

	trainer, err := trainsim.New(trainsim.Config{
		DialClient:       dial,
		Workers:          *workers,
		ComputeCores:     *computeCores,
		Pipeline:         pipeline.Standard(pipeline.StandardOptions{CropSize: *crop, FlipP: -1}),
		GPU:              model,
		BatchSize:        *batch,
		JobID:            *jobID,
		Shuffle:          true,
		FetchBatchSize:   *fetchBatch,
		Lookahead:        *lookahead,
		LookaheadHorizon: *lookaheadHorizon,
		StagingBytes:     *stagingBytes,
		DegradedMode:     *degraded,
	})
	if err != nil {
		return err
	}
	defer trainer.Close()
	logger.Printf("connected: %d samples, training %s with %s", trainer.N(), model.Name, pol.Name())

	// Precomputed plan: skip profiling entirely.
	if *planFile != "" {
		plan, err := persist.LoadPlan(*planFile)
		if err != nil {
			return err
		}
		if plan.N() != trainer.N() {
			return fmt.Errorf("plan covers %d samples, dataset has %d", plan.N(), trainer.N())
		}
		logger.Printf("loaded plan %q: %d samples offloaded", plan.Name, plan.OffloadedCount())
		for e := 1; e <= *epochs; e++ {
			rep, err := trainer.RunEpoch(uint64(e), plan, nil)
			if err != nil {
				return err
			}
			printEpoch(stdout, e, rep)
		}
		return nil
	}

	// Stage 1 (throughput probes) and stage 2 (profile during epoch 1).
	trace, stage1, rep, err := trainer.Profile(*probeBatches)
	if err != nil {
		return err
	}
	logger.Printf("stage 1: gpu=%.0f io=%.0f cpu=%.0f samples/s → %s",
		stage1.GPUThroughput, stage1.IOThroughput, stage1.CPUThroughput, stage1.Bottleneck())
	printEpoch(stdout, 1, rep)

	env := policy.Env{
		Bandwidth:       netsim.Mbps(*mbps),
		ComputeCores:    max(*computeCores, *workers),
		StorageCores:    *storageCores,
		StorageSlowdown: 1,
		GPU:             model,
		// Per-shard planning: -mbps and -storage-cores describe ONE shard's
		// link and cores; the engine budgets each shard independently.
		Shards: nShards,
	}
	if *adaptive {
		s, ok := pol.(*policy.Sophon)
		if !ok {
			return fmt.Errorf("-adaptive requires a sophon policy, got %s", pol.Name())
		}
		return runAdaptive(logger, stdout, trainer, &core.Framework{Engine: s}, trace, env, *epochs,
			profiler.DriftConfig{RelThreshold: *driftThreshold, Hysteresis: *driftHysteresis})
	}

	var plan *policy.Plan
	if s, ok := pol.(*policy.Sophon); ok {
		d, err := (&core.Framework{Engine: s}).DecideWithStage1(trace, env, stage1)
		if err != nil {
			return err
		}
		plan = d.Plan
		logger.Printf("decision: activated=%v offloaded=%d predicted speedup %.2fx",
			d.Activated, plan.OffloadedCount(), d.PredictedSpeedup())
	} else {
		plan, err = pol.Plan(trace, env)
		if err != nil {
			return err
		}
		logger.Printf("%s plan offloads %d samples", pol.Name(), plan.OffloadedCount())
	}

	for e := 2; e <= *epochs; e++ {
		rep, err := trainer.RunEpoch(uint64(e), plan, nil)
		if err != nil {
			return err
		}
		printEpoch(stdout, e, rep)
	}
	return nil
}

// runAdaptive closes the control loop on the live trainer: each epoch runs
// under the controller's current snapshot, a serial fetch probe re-measures
// the link, and drift replans at the next boundary.
func runAdaptive(logger *log.Logger, stdout io.Writer, trainer *trainsim.Trainer, fw *core.Framework,
	trace *dataset.Trace, env policy.Env, epochs int, drift profiler.DriftConfig) error {
	ctrl, err := core.NewController(core.ControllerConfig{
		Framework: fw, Trace: trace, Env: env, Drift: drift,
	})
	if err != nil {
		return err
	}
	first := ctrl.Current()
	logger.Printf("adaptive: initial plan v%d offloads %d samples", first.Version, first.Plan.OffloadedCount())
	for e := 2; e <= epochs; e++ {
		snap := ctrl.Current()
		rep, err := trainer.RunEpochSnapshot(uint64(e), snap, nil)
		if err != nil {
			return err
		}
		printEpoch(stdout, e, rep)
		bw, err := trainer.MeasureBandwidth(trainer.ProbeSamples())
		if err != nil {
			return err
		}
		next, drifts, err := ctrl.ObserveEpoch(profiler.EpochSample{Epoch: uint64(e), Bandwidth: bw})
		if err != nil {
			return err
		}
		if len(drifts) > 0 {
			logger.Printf("replanned: %s (link %.1f MB/s, %d offloaded, effective epoch %d)",
				next.Reason, bw/1e6, next.Plan.OffloadedCount(), next.Epoch)
		}
	}
	for _, ev := range ctrl.History() {
		logger.Printf("history: %s", ev)
	}
	return nil
}

func printEpoch(w io.Writer, e int, r trainsim.EpochReport) {
	failed := ""
	if r.Failed > 0 {
		failed = fmt.Sprintf(", %d failed", r.Failed)
	}
	fmt.Fprintf(w, "epoch %d: %d samples in %v, fetched %.1f MB, offloaded %d%s, gpu util %.1f%%\n",
		e, r.Samples, r.Duration.Round(1e6), float64(r.BytesFetched)/1e6,
		r.Offloaded, failed, 100*r.GPUUtilization)
}
