// Package sophon is the public API of this SOPHON reproduction — a
// selective preprocessing-offloading framework for reducing data traffic in
// deep-learning training (HotStorage '24).
//
// The package exposes two tiers.
//
// The live tier runs the real system: StartCluster boots a one-shard
// in-process storage tier (in-memory object store, near-storage
// preprocessing executor, optional token-bucket bandwidth cap) behind an
// in-memory pipe listener, and NewTrainer attaches a training client whose
// loader workers fetch samples with per-sample offload directives, finish
// preprocessing locally, and feed a simulated GPU. Trainer.Profile runs the
// paper's two-stage profiler and Decide turns its output into an offload
// plan; AutoTrain runs the whole flow. The TCP deployment is the
// sophon-server and sophon-train commands.
//
// The model tier replays profiled traces through a discrete-event simulator
// at full paper scale: GenerateTrace draws datasets matching the paper's
// OpenImages/ImageNet statistics, and SimulatePolicy plans with a policy
// and evaluates the epoch.
package sophon

import (
	"errors"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
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
	// Trace is a profiled dataset: per-sample stage sizes and op times.
	Trace = dataset.Trace
	// Profile statistically describes a dataset.
	Profile = dataset.Profile
	// Decision is the outcome of a full SOPHON planning pass.
	Decision = core.Decision
	// Stage1Result holds the stage-1 profiler's throughput probes.
	Stage1Result = profiler.Stage1Result
	// Trainer is a live training client; Cluster.NewTrainer builds one.
	Trainer = trainsim.Trainer
	// EpochReport summarizes a live training epoch.
	EpochReport = trainsim.EpochReport
	// SimResult summarizes a simulated epoch.
	SimResult = engine.Result
	// DriftConfig tunes the profiler's drift detection (EWMA smoothing,
	// relative-change threshold, hysteresis).
	DriftConfig = profiler.DriftConfig
	// EpochSample is one epoch's measured environment, fed to the
	// controller at epoch boundaries.
	EpochSample = profiler.EpochSample
	// Controller is the adaptive control plane: telemetry in, versioned
	// plans out.
	Controller = core.Controller
	// ControllerConfig configures NewController.
	ControllerConfig = core.ControllerConfig
)

// NewController builds the adaptive control plane over a profiled trace: it
// computes the initial plan (version 1) and replans when observed telemetry
// drifts from the environment the live plan assumes.
func NewController(cfg ControllerConfig) (*Controller, error) {
	return core.NewController(cfg)
}

// AlexNet is the paper's GPU model profile.
var AlexNet = gpu.AlexNet

// Mbps converts megabits/second to the bytes/second used by Env.Bandwidth.
func Mbps(v float64) float64 { return netsim.Mbps(v) }

// NewSophonPolicy returns the paper's decision engine as a Policy.
func NewSophonPolicy() Policy { return policy.NewSophon() }

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

// SimulatePolicy plans with p and simulates the resulting epoch.
func SimulatePolicy(p Policy, tr *Trace, env Env) (SimResult, *Plan, error) {
	return engine.RunPolicy(p, tr, env, 0)
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
	// after a byte count of traffic drawn anew for each connection from
	// [1, 2·budget), so about the budget on average, to exercise client
	// retry (see TrainerOptions.RetryAttempts). Seed seeds the draws. A
	// short draw can close a connection inside its handshake; a retry
	// dials a fresh connection with a fresh draw.
	ChaosConnBudget int64
}

// Cluster is a running one-shard storage tier.
type Cluster struct {
	tier *cluster.Cluster
}

// StartCluster materializes a synthetic dataset into an in-memory store and
// serves it from a one-shard cluster tier (bandwidth-shaped when
// configured).
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
	var plan *chaos.Plan
	if cfg.ChaosConnBudget > 0 {
		plan = &chaos.Plan{Seed: cfg.Seed, Shards: []chaos.Profile{{CloseAfter: cfg.ChaosConnBudget}}}
	}
	tier, err := cluster.Launch(cluster.Config{
		Shards:        1,
		Store:         store,
		Pipeline:      pipeline.Standard(pipeline.StandardOptions{CropSize: cfg.CropSize, FlipP: -1}),
		CoresPerShard: cfg.StorageCores,
		LinkMbps:      cfg.BandwidthMbps,
		Chaos:         plan,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{tier: tier}, nil
}

// SetBandwidth reshapes the storage→compute link to a new Mbps rate while
// the cluster is serving — the live equivalent of a network degradation.
// The cluster must have been started with a BandwidthMbps cap (an unshaped
// link has nothing to reshape).
func (c *Cluster) SetBandwidth(mbps float64) error { return c.tier.SetLinkMbps(mbps) }

// ServerCPUNanos returns the storage node's accumulated preprocessing CPU
// time in nanoseconds.
func (c *Cluster) ServerCPUNanos() uint64 { return c.tier.Counters()[0].CPUNanos.Load() }

// Close shuts the tier down.
func (c *Cluster) Close() error { return c.tier.Close() }

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
	// RetryAttempts is how many times each operation is tried, redialing
	// at once after a broken session (surviving flaky links); 0 means one
	// try.
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

// NewTrainer dials the cluster and builds a trainer.
func (c *Cluster) NewTrainer(opts TrainerOptions) (*Trainer, error) {
	var sharedCache *cache.NoEvict
	if opts.CacheBytes > 0 {
		var err error
		sharedCache, err = cache.NewNoEvict(opts.CacheBytes)
		if err != nil {
			return nil, err
		}
	}
	dial := func() (storage.Fetcher, error) {
		sc, err := c.tier.NewShardedClient(storage.ClientOptions{JobID: opts.JobID}, max(opts.RetryAttempts, 1), 0, false)
		if err != nil {
			return nil, err
		}
		var client storage.Fetcher = sc
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
	return trainsim.New(trainsim.Config{
		DialClient:     dial,
		Workers:        opts.Workers,
		GPU:            gpu.AlexNet,
		BatchSize:      opts.BatchSize,
		JobID:          opts.JobID,
		Shuffle:        opts.Shuffle,
		FetchBatchSize: opts.FetchBatchSize,
	})
}

// DecideMeasured combines a measured trace and stage-1 verdict into an
// offload plan via the SOPHON framework.
func DecideMeasured(tr *Trace, env Env, stage1 Stage1Result) (Decision, error) {
	return core.New().DecideWithStage1(tr, env, stage1)
}

// AutoTrain runs the complete Figure 2 flow on t: stage-1 probes, a
// profiling first epoch, the SOPHON decision for t.Env(bandwidth) (with the
// measured stage-1 verdict as the gate), then the remaining epochs under the
// plan. It returns the decision and one report per epoch (including the
// profiling epoch).
func AutoTrain(t *Trainer, epochs int, bandwidth float64, probeBatches int) (Decision, []EpochReport, error) {
	if epochs < 1 {
		return Decision{}, nil, errors.New("sophon: epochs must be >= 1")
	}
	trace, stage1, first, err := t.Profile(probeBatches)
	if err != nil {
		return Decision{}, nil, err
	}
	reports := []EpochReport{first}
	decision, err := DecideMeasured(trace, t.Env(bandwidth), stage1)
	if err != nil {
		return Decision{}, nil, err
	}
	for e := 2; e <= epochs; e++ {
		rep, err := t.RunEpoch(uint64(e), decision.Plan, nil)
		if err != nil {
			return Decision{}, nil, err
		}
		reports = append(reports, rep)
	}
	return decision, reports, nil
}
