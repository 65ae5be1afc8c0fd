// Package soak drives end-to-end chaos soaks: a trainer running real epochs
// against a sharded storage tier whose network fabric is injected with
// seeded faults, checked against a fault-free reference cluster serving the
// identical dataset. It is the shared engine behind the repository's chaos
// soak suite (go test -chaos.seed=...) and sophon-bench's chaos mode.
//
// A soak asserts the recovery invariants the fault model promises:
//
//   - Bit identity: every artifact fetched through the faulty fabric equals,
//     byte for byte, the one the pristine cluster serves. Corruption may
//     cost retries, never wrong tensors.
//   - Exact failure accounting: EpochReport.Failed matches the injected
//     unrecoverable faults — zero for recoverable classes, exactly the
//     partitioned shard's owned-sample count for partition epochs.
//   - Reproducibility: the report carries the chaos plan's digest; the same
//     seed yields the same digest, fault schedules, and outcome.
package soak

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// Class names a fault mix for the whole soak.
type Class string

// Soak fault classes. Recoverable classes (delays, corrupt, mixed) must end
// with zero failed samples; partition is the unrecoverable class whose
// failures are exactly accounted.
const (
	classNone      Class = "none"
	classDelays    Class = "delays"
	classCorrupt   Class = "corrupt"
	classMixed     Class = "mixed"
	classPartition Class = "partition"
)

// ParseClass validates a -chaos.class flag value.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case classNone, classDelays, classCorrupt, classMixed, classPartition:
		return Class(s), nil
	case "":
		return classMixed, nil
	}
	return "", fmt.Errorf("soak: unknown chaos class %q (want none|delays|corrupt|mixed|partition)", s)
}

// shards is the storage tier's shard count in every soak.
const shards = 2

// Config parameterizes one soak run. The zero value plus a seed is a valid
// quick soak.
type Config struct {
	Seed    uint64
	Class   Class // "" → mixed
	Samples int   // dataset size (0 → 48)
	Epochs  int   // trainer epochs (0 → 3)
	// Lookahead is the trainer's per-shard fetch depth (0 → the trainer's
	// default, 2×Workers). Soaking with a deep lookahead proves the recovery
	// invariants hold while many speculative fetches are in flight against a
	// faulty fabric.
	Lookahead int
}

func (c Config) withDefaults() Config {
	if c.Class == "" {
		c.Class = classMixed
	}
	if c.Samples <= 0 {
		c.Samples = 48
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	return c
}

// Plan expands the config into the per-shard chaos plan. Every shard gets
// the class's profile; the partition class runs a fault-free wire (the
// partition itself is toggled at epoch boundaries by Run).
func (c Config) Plan() *chaos.Plan {
	c = c.withDefaults()
	var p chaos.Profile
	switch c.Class {
	case classDelays:
		p = chaos.Profile{
			DelayEvery: 8 << 10, Delay: 200 * time.Microsecond,
			StallEvery: 128 << 10, Stall: 2 * time.Millisecond,
		}
	case classCorrupt:
		p = chaos.Profile{CorruptEvery: 16 << 10}
	case classMixed:
		p = chaos.Profile{
			DelayEvery: 16 << 10, Delay: 100 * time.Microsecond,
			CorruptEvery: 32 << 10,
			CloseAfter:   512 << 10,
		}
	case classNone, classPartition:
		// fault-free wire
	}
	profiles := make([]chaos.Profile, shards)
	for i := range profiles {
		profiles[i] = p
	}
	return &chaos.Plan{Seed: c.Seed, Shards: profiles}
}

// Report is the outcome of one soak run.
type Report struct {
	Seed      uint64 `json:"seed"`
	Class     Class  `json:"class"`
	Lookahead int    `json:"lookahead,omitempty"`
	Digest    uint32 `json:"digest"` // chaos plan fingerprint: same seed → same digest

	Compared   int `json:"compared"`   // artifact pairs checked for bit identity
	Mismatches int `json:"mismatches"` // pairs that differed (must be 0)

	Failed     int `json:"failed"`      // samples lost across all epochs
	WantFailed int `json:"want_failed"` // exact expected loss from unrecoverable faults

	Epochs []trainsim.EpochReport `json:"epochs"`
	Chaos  []chaos.StatsSnapshot  `json:"chaos"` // injected faults per shard
}

// Ok reports whether the soak met every invariant.
func (r Report) Ok() bool {
	return r.Mismatches == 0 && r.Failed == r.WantFailed && len(r.Epochs) > 0
}

// retryAttempts is the soak clients' deep attempt budget, retried with no
// pause, so recoverable faults are always outlasted and the soak stays fast.
const retryAttempts = 12

// Run executes one soak: build the dataset, launch a chaos cluster and a
// pristine reference cluster over it, sweep every sample for bit identity,
// then run trainer epochs in degraded mode (partitioning shard 0 for the
// middle epoch under the partition class) and account failures exactly.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{Seed: cfg.Seed, Class: cfg.Class, Lookahead: cfg.Lookahead}

	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "soak", N: cfg.Samples, Seed: cfg.Seed ^ 0x5eed, MinDim: 32, MaxDim: 96,
	})
	if err != nil {
		return rep, err
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		return rep, err
	}
	pipe := pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: 0.5})
	plan := cfg.Plan()
	rep.Digest = plan.Digest(16)

	launch := func(p *chaos.Plan) (*cluster.Cluster, error) {
		return cluster.Launch(cluster.Config{
			Shards: shards, Store: store, Pipeline: pipe, CoresPerShard: 1, Chaos: p,
		})
	}
	faulty, err := launch(plan)
	if err != nil {
		return rep, err
	}
	defer faulty.Close()
	pristine, err := launch(nil)
	if err != nil {
		return rep, err
	}
	defer pristine.Close()

	if err := identitySweep(&rep, cfg, store.N(), pipe, faulty, pristine); err != nil {
		return rep, err
	}
	if err := trainEpochs(&rep, cfg, faulty); err != nil {
		return rep, err
	}
	for s := 0; s < shards; s++ {
		rep.Chaos = append(rep.Chaos, faulty.ChaosStats(s))
	}
	return rep, nil
}

// identitySweep fetches every sample — raw, cut after RandomResizedCrop (a
// packed image artifact, the cut SOPHON ships) and fully offloaded — through
// both fabrics and compares artifacts byte for byte. Augmentation seeds
// depend only on (job, epoch, sample), so the two clusters must agree
// exactly; any divergence is a fault that leaked past the checksum.
func identitySweep(rep *Report, cfg Config, n int, pipe *pipeline.Pipeline, faulty, pristine *cluster.Cluster) error {
	opts := storage.ClientOptions{JobID: cfg.Seed}
	fc, err := faulty.NewShardedClient(opts, retryAttempts, 0, false)
	if err != nil {
		return fmt.Errorf("soak: faulty client: %w", err)
	}
	defer fc.Close()
	pc, err := pristine.NewShardedClient(opts, retryAttempts, 0, false)
	if err != nil {
		return fmt.Errorf("soak: pristine client: %w", err)
	}
	defer pc.Close()

	ctx := context.Background()
	for _, split := range []int{0, 2, pipe.Len()} {
		for id := 0; id < n; id++ {
			got, err := storage.FetchOne(ctx, fc, uint32(id), split, 1)
			if err != nil {
				return fmt.Errorf("soak: sample %d split %d through faults: %w", id, split, err)
			}
			want, err := storage.FetchOne(ctx, pc, uint32(id), split, 1)
			if err != nil {
				return fmt.Errorf("soak: sample %d split %d pristine: %w", id, split, err)
			}
			rep.Compared++
			if !got.Artifact.Equal(want.Artifact) {
				rep.Mismatches++
			}
		}
	}
	return nil
}

// trainEpochs runs the degraded-mode trainer over the faulty fabric. Under
// the partition class, shard 0 is severed for the middle epoch and healed
// after, so the expected failure count is exactly its owned-sample count.
func trainEpochs(rep *Report, cfg Config, faulty *cluster.Cluster) error {
	tcfg := trainsim.Config{
		DialClient: func() (storage.Fetcher, error) {
			return faulty.NewShardedClient(storage.ClientOptions{JobID: cfg.Seed}, retryAttempts, 0, true)
		},
		Workers:        3,
		GPU:            gpu.AlexNet,
		BatchSize:      8,
		FetchBatchSize: 8,
		JobID:          cfg.Seed,
		DegradedMode:   true,
		Lookahead:      cfg.Lookahead,
	}
	tr, err := trainsim.New(tcfg)
	if err != nil {
		return fmt.Errorf("soak: trainer: %w", err)
	}
	defer tr.Close()

	plan, err := policy.NewUniformPlan("soak", tr.N(), 1)
	if err != nil {
		return err
	}
	partitionEpoch := uint64(0)
	if cfg.Class == classPartition && cfg.Epochs >= 2 {
		partitionEpoch = uint64(cfg.Epochs/2 + 1)
		rep.WantFailed = len(faulty.ShardMap().Owned(tr.N(), 0))
	}
	for e := uint64(1); e <= uint64(cfg.Epochs); e++ {
		if partitionEpoch != 0 {
			if err := faulty.PartitionShard(0, e == partitionEpoch); err != nil {
				return err
			}
		}
		er, err := tr.RunEpoch(e, plan, nil)
		if err != nil {
			return fmt.Errorf("soak: epoch %d: %w", e, err)
		}
		rep.Epochs = append(rep.Epochs, er)
		rep.Failed += er.Failed
	}
	return nil
}
