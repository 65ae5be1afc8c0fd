// Package sophon is the public API of this SOPHON reproduction — a
// selective preprocessing-offloading framework for reducing data traffic in
// deep-learning training (HotStorage '24).
//
// The package exposes two tiers.
//
// The live tier runs the real system: StartCluster boots an in-process
// storage server (in-memory object store, near-storage preprocessing
// executor, optional token-bucket bandwidth cap) on a loopback TCP socket,
// and NewTrainer attaches a training client whose loader workers fetch
// samples with per-sample offload directives, finish preprocessing locally,
// and feed a simulated GPU. Profile runs the paper's two-stage profiler and
// Decide turns its output into an offload plan.
//
// The model tier replays profiled traces through a discrete-event simulator
// at full paper scale: GenerateTrace draws datasets matching the paper's
// OpenImages/ImageNet statistics, SimulateEpoch evaluates a plan, and
// Reproduce regenerates every table and figure in the evaluation.
package sophon

import (
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// Re-exported core types. These aliases make the internal packages' types
// part of the public surface without duplicating them.
type (
	// Env describes the training environment's resources.
	Env = policy.Env
	// Plan assigns each sample its offloaded prefix length.
	Plan = policy.Plan
	// Policy produces plans; implementations include the paper's
	// baselines and the SOPHON decision engine.
	Policy = policy.Policy
	// EpochModel holds the paper's four epoch cost metrics.
	EpochModel = policy.EpochModel
	// Trace is a profiled dataset: per-sample stage sizes and op times.
	Trace = dataset.Trace
	// Profile statistically describes a dataset.
	Profile = dataset.Profile
	// Decision is the outcome of a full SOPHON planning pass.
	Decision = core.Decision
	// Stage1Result holds the stage-1 profiler's throughput probes.
	Stage1Result = profiler.Stage1Result
	// EpochReport summarizes a live training epoch.
	EpochReport = trainsim.EpochReport
	// SimResult summarizes a simulated epoch.
	SimResult = engine.Result
	// GPUModel is a training model's speed profile.
	GPUModel = gpu.Model
	// ExperimentOptions scales the paper-reproduction experiments.
	ExperimentOptions = eval.Options

	// PlanVersion is the control plane's monotonic plan identity.
	PlanVersion = policy.PlanVersion
	// PlanSnapshot is an immutable versioned plan plus the environment it
	// was computed against.
	PlanSnapshot = policy.PlanSnapshot
	// PlanProvider is the consumer-side view of the adaptive control plane.
	PlanProvider = policy.PlanProvider
	// DriftConfig tunes the profiler's drift detection (EWMA smoothing,
	// relative-change threshold, hysteresis).
	DriftConfig = profiler.DriftConfig
	// ReplanEvent is one control-plane transition in the replan history.
	ReplanEvent = core.ReplanEvent
	// EpochSample is one epoch's measured environment, fed to the
	// controller at epoch boundaries.
	EpochSample = profiler.EpochSample
	// Drift reports one metric that moved past its gate.
	Drift = profiler.Drift
	// Controller is the adaptive control plane: telemetry in, versioned
	// plans out.
	Controller = core.Controller
	// ControllerConfig configures NewController.
	ControllerConfig = core.ControllerConfig
	// AdaptiveSimConfig configures RunAdaptiveSim at the model tier.
	AdaptiveSimConfig = core.SimConfig
	// AdaptiveSimResult is a full adaptive (or static) simulated run.
	AdaptiveSimResult = core.SimResult
)

// NewController builds the adaptive control plane over a profiled trace: it
// computes the initial plan (version 1) and replans when observed telemetry
// drifts from the environment the live plan assumes.
func NewController(cfg ControllerConfig) (*Controller, error) {
	return core.NewController(cfg)
}

// RunAdaptiveSim drives the controller loop through the discrete-event
// engine: each epoch simulates the current plan against that epoch's true
// environment and feeds the measured outcome back to the controller. Run it
// twice — Adaptive true and false — over the same environment schedule to
// compare adaptive against static replanning.
func RunAdaptiveSim(cfg AdaptiveSimConfig) (AdaptiveSimResult, error) {
	return core.RunAdaptiveSim(cfg)
}

// GPU model profiles.
var (
	AlexNet  = gpu.AlexNet
	ResNet18 = gpu.ResNet18
	ResNet50 = gpu.ResNet50
)

// Mbps converts megabits/second to the bytes/second used by Env.Bandwidth.
func Mbps(v float64) float64 { return netsim.Mbps(v) }

// Policies.
func NewSophonPolicy() Policy { return policy.NewSophon() }
func NoOffPolicy() Policy     { return policy.NoOff{} }
func AllOffPolicy() Policy    { return policy.AllOff{} }
func ResizeOffPolicy() Policy { return policy.ResizeOff{} }
func FastFlowPolicy() Policy  { return policy.FastFlow{} }

// AllPolicies returns every policy in the paper's figure order.
func AllPolicies() []Policy { return policy.All() }

// OpenImagesProfile returns the paper's 12 GB OpenImages subset profile
// (40 000 samples); pass n > 0 to scale it down.
func OpenImagesProfile(n int) Profile {
	p := dataset.OpenImages12G()
	if n > 0 {
		p = p.ScaledTo(n)
	}
	return p
}

// ImageNetProfile returns the paper's 11 GB ImageNet subset profile
// (91 000 samples); pass n > 0 to scale it down.
func ImageNetProfile(n int) Profile {
	p := dataset.ImageNet11G()
	if n > 0 {
		p = p.ScaledTo(n)
	}
	return p
}

// GenerateTrace draws a deterministic profiled dataset from a profile.
func GenerateTrace(p Profile, seed uint64) (*Trace, error) {
	return dataset.GenerateTrace(p, seed)
}

// Decide runs the SOPHON framework (stage-1 gate + decision engine) over a
// profiled trace.
func Decide(tr *Trace, env Env) (Decision, error) {
	return core.New().Decide(tr, env)
}

// SimulateEpoch replays one epoch of a plan through the discrete-event
// engine with the default batch size.
func SimulateEpoch(tr *Trace, plan *Plan, env Env) (SimResult, error) {
	return engine.Run(engine.Config{Trace: tr, Plan: plan, Env: env})
}

// SimulatePolicy plans with p and simulates the resulting epoch.
func SimulatePolicy(p Policy, tr *Trace, env Env) (SimResult, *Plan, error) {
	return engine.RunPolicy(p, tr, env, 0)
}

// Reproduce regenerates every table and figure from the paper's evaluation,
// writing the report to w. Zero-valued options mean paper scale.
func Reproduce(opts ExperimentOptions, w io.Writer) error {
	return eval.RunAll(opts, w)
}

// ClusterConfig configures an in-process two-node testbed.
type ClusterConfig struct {
	// DatasetName labels the synthetic dataset; empty means "synthetic".
	DatasetName string
	// NumSamples is the dataset size (required).
	NumSamples int
	// Seed makes the dataset deterministic.
	Seed uint64
	// MinDim/MaxDim bound image sides; zero means 80–480 px.
	MinDim, MaxDim int
	// CropSize is the pipeline's RandomResizedCrop output; zero means 224.
	CropSize int
	// StorageCores is the storage node's preprocessing core budget.
	StorageCores int
	// BandwidthMbps caps the storage→compute link; zero means unshaped.
	BandwidthMbps float64
	// ChaosConnBudget, when positive, kills every accepted connection
	// after that many transferred bytes — fault injection for exercising
	// client retry (see TrainerOptions.RetryAttempts).
	ChaosConnBudget int64
}

// Cluster is a running storage server plus the facts needed to train
// against it.
type Cluster struct {
	server   *storage.Server
	listener net.Listener
	pipe     *pipeline.Pipeline
	set      *dataset.ImageSet
	addr     string
	bucket   *netsim.TokenBucket
}

// StartCluster materializes a synthetic dataset into an in-memory store and
// serves it on a loopback TCP listener (bandwidth-shaped when configured).
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumSamples <= 0 {
		return nil, errors.New("sophon: NumSamples must be positive")
	}
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name:   cfg.DatasetName,
		N:      cfg.NumSamples,
		Seed:   cfg.Seed,
		MinDim: cfg.MinDim,
		MaxDim: cfg.MaxDim,
	})
	if err != nil {
		return nil, err
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		return nil, err
	}
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: cfg.CropSize, FlipP: -1})
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p, Cores: cfg.StorageCores})
	if err != nil {
		return nil, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sophon: listen: %w", err)
	}
	var l net.Listener = inner
	var bucket *netsim.TokenBucket
	if cfg.BandwidthMbps > 0 {
		bucket, err = netsim.NewTokenBucket(netsim.Mbps(cfg.BandwidthMbps), 256<<10, nil)
		if err != nil {
			inner.Close()
			return nil, err
		}
		l = netsim.ShapeListener(inner, bucket)
	}
	if cfg.ChaosConnBudget > 0 {
		l = chaosListener{Listener: l, budget: cfg.ChaosConnBudget}
	}
	go srv.Serve(l)
	return &Cluster{server: srv, listener: l, pipe: p, set: set, addr: inner.Addr().String(), bucket: bucket}, nil
}

// chaosListener wraps accepted connections with a byte-budget fault
// injector.
type chaosListener struct {
	net.Listener
	budget int64
}

func (l chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return netsim.Flaky(conn, l.budget), nil
}

// Addr returns the server's TCP address.
func (c *Cluster) Addr() string { return c.addr }

// Pipeline returns the preprocessing pipeline both nodes run.
func (c *Cluster) Pipeline() *pipeline.Pipeline { return c.pipe }

// NumSamples returns the dataset size.
func (c *Cluster) NumSamples() int { return c.set.N() }

// Dial opens a storage client for the given training job.
func (c *Cluster) Dial(jobID uint64) (*storage.Client, error) {
	return storage.Dial(c.addr, jobID)
}

// SetBandwidth reshapes the storage→compute link to a new Mbps rate while
// the cluster is serving — the live equivalent of a network degradation.
// The cluster must have been started with a BandwidthMbps cap (an unshaped
// link has nothing to reshape).
func (c *Cluster) SetBandwidth(mbps float64) error {
	if c.bucket == nil {
		return errors.New("sophon: cluster started without bandwidth shaping")
	}
	return c.bucket.SetRate(netsim.Mbps(mbps))
}

// ServerPlanVersion returns the highest plan version the storage server has
// observed on the wire (0 until versioned traffic arrives).
func (c *Cluster) ServerPlanVersion() uint32 {
	return c.server.Counters().PlanVersion.Load()
}

// ServerCPUNanos returns the storage node's accumulated preprocessing CPU
// time in nanoseconds.
func (c *Cluster) ServerCPUNanos() uint64 {
	return c.server.Counters().CPUNanos.Load()
}

// serverCounters exposes the raw counters to the monitor integration.
func (c *Cluster) serverCounters() *storage.Counters { return c.server.Counters() }

// Close shuts the server down.
func (c *Cluster) Close() error { return c.server.Close() }

// TrainerOptions configures a live trainer attached to a cluster.
type TrainerOptions struct {
	// Workers is the loader parallelism; zero means 4.
	Workers int
	// BatchSize is the per-step batch; zero means 32.
	BatchSize int
	// JobID seeds augmentations.
	JobID uint64
	// Shuffle permutes the visit order per epoch.
	Shuffle bool
	// FetchBatchSize groups this many samples per storage round trip;
	// 0 or 1 means per-sample fetches.
	FetchBatchSize int
	// RetryAttempts, when > 1, wraps the session with transparent
	// reconnect-and-retry (surviving flaky links), redialing at once.
	RetryAttempts int
	// CacheBytes, when positive, puts a no-evict local raw-object cache
	// of that capacity in front of the storage client (shared across the
	// trainer's workers).
	CacheBytes int64
	// SharedCache, when non-nil, stacks the fleet's cross-job artifact
	// cache over the session: artifacts another tenant of the share group
	// already fetched are served from memory at zero wire bytes. JobID must
	// be the group's dataset share key (coordinated prep), and TenantName
	// labels this trainer in the cache's per-tenant accounting.
	SharedCache *SharedArtifactCache
	// TenantName is required with SharedCache.
	TenantName string
}

// Trainer is a live training client.
type Trainer struct {
	inner *trainsim.Trainer
	n     int
}

// NewTrainer dials the cluster and builds a trainer.
func (c *Cluster) NewTrainer(opts TrainerOptions) (*Trainer, error) {
	var sharedCache cache.Cache
	if opts.CacheBytes > 0 {
		var err error
		sharedCache, err = cache.NewNoEvict(opts.CacheBytes)
		if err != nil {
			return nil, err
		}
	}
	dialSession := func() (*storage.Client, error) { return c.Dial(opts.JobID) }
	dial := func() (storage.Fetcher, error) {
		var client storage.Fetcher
		if opts.RetryAttempts > 1 {
			rc, err := storage.NewReconnecting(dialSession, opts.RetryAttempts, 0, nil)
			if err != nil {
				return nil, err
			}
			client = rc
		} else {
			sc, err := dialSession()
			if err != nil {
				return nil, err
			}
			client = sc
		}
		if sharedCache != nil {
			client = cache.NewFetchingCache(client, sharedCache)
		}
		if opts.SharedCache != nil {
			tf, err := cache.NewTenantFetcher(client, opts.SharedCache, opts.TenantName, opts.JobID)
			if err != nil {
				client.Close()
				return nil, err
			}
			client = tf
		}
		return client, nil
	}
	inner, err := trainsim.New(trainsim.Config{
		DialClient:     dial,
		Workers:        opts.Workers,
		Pipeline:       c.pipe,
		GPU:            gpu.AlexNet,
		BatchSize:      opts.BatchSize,
		JobID:          opts.JobID,
		Shuffle:        opts.Shuffle,
		FetchBatchSize: opts.FetchBatchSize,
	})
	if err != nil {
		return nil, err
	}
	return &Trainer{inner: inner, n: inner.N()}, nil
}

// N returns the dataset size the server reported.
func (t *Trainer) N() int { return t.n }

// Close releases the trainer's connections.
func (t *Trainer) Close() { t.inner.Close() }

// TrainEpoch runs one epoch under plan (nil means no offloading).
func (t *Trainer) TrainEpoch(epoch uint64, plan *Plan) (EpochReport, error) {
	return t.inner.RunEpoch(epoch, plan, nil)
}

// TrainEpochSnapshot runs one epoch under a versioned plan snapshot from the
// control plane: every fetch is stamped with the snapshot's version and the
// report records it.
func (t *Trainer) TrainEpochSnapshot(epoch uint64, snap *PlanSnapshot) (EpochReport, error) {
	return t.inner.RunEpochSnapshot(epoch, snap, nil)
}

// MeasureBandwidth probes the storage link's current throughput in
// bytes/second with n serial raw fetches (the adaptive loop's between-epoch
// re-profiling).
func (t *Trainer) MeasureBandwidth(n int) (float64, error) {
	return t.inner.MeasureBandwidth(n)
}

// Profile runs the paper's two-stage profiler: stage 1 measures GPU/IO/CPU
// throughput over probeBatches batches; stage 2 is the first training epoch
// executed without offloading while collecting per-sample metrics. It
// returns the measured trace, the stage-1 verdict, and the epoch-1 report.
func (t *Trainer) Profile(probeBatches int) (*Trace, Stage1Result, EpochReport, error) {
	stage1, err := profiler.RunStage1(t.inner.Stage1Probes(), probeBatches)
	if err != nil {
		return nil, Stage1Result{}, EpochReport{}, err
	}
	collector, err := profiler.NewCollector(t.n)
	if err != nil {
		return nil, Stage1Result{}, EpochReport{}, err
	}
	report, err := t.inner.RunEpoch(1, nil, collector)
	if err != nil {
		return nil, Stage1Result{}, EpochReport{}, err
	}
	tr, err := collector.Trace("measured")
	if err != nil {
		return nil, Stage1Result{}, EpochReport{}, err
	}
	return tr, stage1, report, nil
}

// DecideMeasured combines a measured trace and stage-1 verdict into an
// offload plan via the SOPHON framework.
func DecideMeasured(tr *Trace, env Env, stage1 Stage1Result) (Decision, error) {
	return core.New().DecideWithStage1(tr, env, stage1)
}

// AutoTrain runs the complete Figure 2 flow: stage-1 probes, a profiling
// first epoch, the SOPHON decision against env (with the measured stage-1
// verdict as the gate), then the remaining epochs under the plan. It
// returns the decision and one report per epoch (including the profiling
// epoch).
func (t *Trainer) AutoTrain(epochs int, env Env, probeBatches int) (Decision, []EpochReport, error) {
	if epochs < 1 {
		return Decision{}, nil, errors.New("sophon: epochs must be >= 1")
	}
	trace, stage1, first, err := t.Profile(probeBatches)
	if err != nil {
		return Decision{}, nil, err
	}
	reports := []EpochReport{first}
	decision, err := DecideMeasured(trace, env, stage1)
	if err != nil {
		return Decision{}, nil, err
	}
	for e := 2; e <= epochs; e++ {
		rep, err := t.TrainEpoch(uint64(e), decision.Plan)
		if err != nil {
			return Decision{}, nil, err
		}
		reports = append(reports, rep)
	}
	return decision, reports, nil
}

// AdaptiveTrainResult is the outcome of an adaptive live training run.
type AdaptiveTrainResult struct {
	// Reports holds one entry per epoch, the profiling epoch included; each
	// records the plan version it ran under.
	Reports []EpochReport
	// History is the controller's replan history, the "initial" plan first.
	History []ReplanEvent
	// Final is the planning outcome in force when training ended.
	Final Decision
}

// AutoTrainAdaptive is AutoTrain with the control plane closed into a loop:
// after the profiling epoch seeds the plan, every later epoch runs under the
// controller's current snapshot, a serial fetch probe re-measures the link,
// and the controller replans at the next epoch boundary when the measurement
// drifts past the configured gates. The zero DriftConfig uses the default
// thresholds. Bandwidth probing fetches raw samples, so runs with a local
// cache attached (TrainerOptions.CacheBytes) will measure the cache, not
// the link.
func (t *Trainer) AutoTrainAdaptive(epochs int, env Env, probeBatches int, drift DriftConfig) (AdaptiveTrainResult, error) {
	if epochs < 1 {
		return AdaptiveTrainResult{}, errors.New("sophon: epochs must be >= 1")
	}
	trace, _, first, err := t.Profile(probeBatches)
	if err != nil {
		return AdaptiveTrainResult{}, err
	}
	ctrl, err := core.NewController(core.ControllerConfig{Trace: trace, Env: env, Drift: drift})
	if err != nil {
		return AdaptiveTrainResult{}, err
	}
	reports := []EpochReport{first}
	for e := 2; e <= epochs; e++ {
		snap := ctrl.Current()
		rep, err := t.inner.RunEpochSnapshot(uint64(e), snap, nil)
		if err != nil {
			return AdaptiveTrainResult{}, err
		}
		reports = append(reports, rep)
		bw, err := t.MeasureBandwidth(t.inner.ProbeSamples())
		if err != nil {
			return AdaptiveTrainResult{}, err
		}
		if _, _, err := ctrl.ObserveEpoch(profiler.EpochSample{Epoch: uint64(e), Bandwidth: bw}); err != nil {
			return AdaptiveTrainResult{}, err
		}
	}
	return AdaptiveTrainResult{Reports: reports, History: ctrl.History(), Final: ctrl.Decision()}, nil
}
