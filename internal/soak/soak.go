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
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/prepsched"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// Class names a fault mix for the whole soak.
type Class string

// Soak fault classes. Recoverable classes (delays, corrupt, mixed) must end
// with zero failed samples; partition is the unrecoverable class whose
// failures are exactly accounted.
const (
	ClassNone      Class = "none"
	ClassDelays    Class = "delays"
	ClassCorrupt   Class = "corrupt"
	ClassMixed     Class = "mixed"
	ClassPartition Class = "partition"
)

// ParseClass validates a -chaos.class flag value.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case ClassNone, ClassDelays, ClassCorrupt, ClassMixed, ClassPartition:
		return Class(s), nil
	case "":
		return ClassMixed, nil
	}
	return "", fmt.Errorf("soak: unknown chaos class %q (want none|delays|corrupt|mixed|partition)", s)
}

// Config parameterizes one soak run. The zero value plus a seed is a valid
// quick soak.
type Config struct {
	Seed    uint64
	Class   Class // "" → mixed
	Samples int   // dataset size (0 → 48)
	Shards  int   // storage shards (0 → 2)
	Epochs  int   // trainer epochs (0 → 3)
	// Lookahead is the trainer's per-shard fetch depth (0 → the trainer's
	// default, 2×Workers). Soaking with a deep lookahead proves the recovery
	// invariants hold while many speculative fetches are in flight against a
	// faulty fabric.
	Lookahead int
	// MixFlip runs the epochs with a seeded heavy/light classification on
	// the trainer's work-stealing prep pool, whose heavy set flips mid-epoch
	// from sparse (~8% of samples) to dominant (~60%), while an adaptive
	// controller watches the observed per-epoch mix. The soak then proves
	// the scheduler invariants end to end: artifacts stay bit-identical to
	// the fault-free reference, failure accounting stays exact, and the
	// sustained skew flip triggers at least one "mix-drift" replan.
	MixFlip bool
}

func (c Config) withDefaults() Config {
	if c.Class == "" {
		c.Class = ClassMixed
	}
	if c.Samples <= 0 {
		c.Samples = 48
	}
	if c.Shards <= 0 {
		c.Shards = 2
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
	case ClassDelays:
		p = chaos.Profile{
			DelayEvery: 8 << 10, Delay: 200 * time.Microsecond,
			StallEvery: 128 << 10, Stall: 2 * time.Millisecond,
		}
	case ClassCorrupt:
		p = chaos.Profile{CorruptEvery: 16 << 10}
	case ClassMixed:
		p = chaos.Profile{
			DelayEvery: 16 << 10, Delay: 100 * time.Microsecond,
			CorruptEvery: 32 << 10,
			CloseAfter:   512 << 10,
		}
	case ClassNone, ClassPartition:
		// fault-free wire
	}
	shards := make([]chaos.Profile, c.Shards)
	for i := range shards {
		shards[i] = p
	}
	return &chaos.Plan{Seed: c.Seed, Shards: shards}
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

	// MixFlip soaks additionally record the control-plane outcome of the
	// skew flip and the work-stealing pool's counters.
	MixFlip       bool                       `json:"mix_flip,omitempty"`
	Replans       int                        `json:"replans,omitempty"`        // replans beyond the initial plan
	ReplanReasons []string                   `json:"replan_reasons,omitempty"` // one per replan, e.g. "mix-drift"
	Prepsched     *prepsched.MetricsSnapshot `json:"prepsched,omitempty"`
}

// Ok reports whether the soak met every invariant.
func (r Report) Ok() bool {
	if r.MixFlip && r.Replans == 0 {
		return false
	}
	return r.Mismatches == 0 && r.Failed == r.WantFailed && len(r.Epochs) > 0
}

// retryPolicy is the soak's hardened client policy: a deep attempt budget
// with no pauses, so recoverable faults are always outlasted and the soak
// stays fast.
var retryPolicy = storage.RetryPolicy{Attempts: 12, BaseBackoff: -1, Jitter: -1}

// Run executes one soak: build the dataset, launch a chaos cluster and a
// pristine reference cluster over it, sweep every sample for bit identity,
// then run trainer epochs in degraded mode (partitioning shard 0 for the
// middle epoch under the partition class) and account failures exactly.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{Seed: cfg.Seed, Class: cfg.Class, Lookahead: cfg.Lookahead, MixFlip: cfg.MixFlip}

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
			Shards: cfg.Shards, Store: store, Pipeline: pipe, CoresPerShard: 1, Chaos: p,
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
	for s := 0; s < cfg.Shards; s++ {
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
	fc, err := faulty.NewShardedClientWithPolicy(opts, retryPolicy, false)
	if err != nil {
		return fmt.Errorf("soak: faulty client: %w", err)
	}
	defer fc.Close()
	pc, err := pristine.NewShardedClientWithPolicy(opts, retryPolicy, false)
	if err != nil {
		return fmt.Errorf("soak: pristine client: %w", err)
	}
	defer pc.Close()

	ctx := context.Background()
	for _, split := range []int{0, 2, pipe.Len()} {
		for id := 0; id < n; id++ {
			got, err := fc.Fetch(ctx, uint32(id), split, 1)
			if err != nil {
				return fmt.Errorf("soak: sample %d split %d through faults: %w", id, split, err)
			}
			want, err := pc.Fetch(ctx, uint32(id), split, 1)
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
// MixFlip soaks swap the static uniform plan for an adaptive controller and
// run the prep pool through a mid-training skew flip.
func trainEpochs(rep *Report, cfg Config, faulty *cluster.Cluster) error {
	tcfg := trainsim.Config{
		DialClient: func() (storage.Fetcher, error) {
			return faulty.NewShardedClientWithPolicy(storage.ClientOptions{JobID: cfg.Seed}, retryPolicy, true)
		},
		Workers:        3,
		Pipeline:       pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: 0.5}),
		GPU:            gpu.AlexNet,
		BatchSize:      8,
		FetchBatchSize: 8,
		JobID:          cfg.Seed,
		DegradedMode:   true,
		Lookahead:      cfg.Lookahead,
	}
	if cfg.MixFlip {
		// The classifier flips its heavy set halfway through epoch 2: the
		// dispatcher classifies exactly once per dispatched sample in stream
		// order, so counting dispatches pins the flip to the same stream
		// position every run — classification (and therefore the per-epoch
		// Heavy counts the controller observes) is fully reproducible even
		// though worker completion order is not.
		var dispatched atomic.Int64
		flipAt := int64(cfg.Samples + cfg.Samples/2)
		tcfg.Classify = func(sample int) prepsched.Class {
			salt, pct := uint64(0xA11CE), uint64(8)
			if dispatched.Add(1) > flipAt {
				salt, pct = 0xB0B, 60
			}
			if heavyMember(cfg.Seed^salt, sample, pct) {
				return prepsched.Heavy
			}
			return prepsched.Light
		}
	}
	tr, err := trainsim.New(tcfg)
	if err != nil {
		return fmt.Errorf("soak: trainer: %w", err)
	}
	defer tr.Close()

	if cfg.MixFlip {
		return mixFlipEpochs(rep, cfg, tr)
	}

	plan, err := policy.NewUniformPlan("soak", tr.N(), 1)
	if err != nil {
		return err
	}
	partitionEpoch := uint64(0)
	if cfg.Class == ClassPartition && cfg.Epochs >= 2 {
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

// mixFlipEpochs drives the classified epochs under an adaptive
// controller: each epoch runs under the controller's current snapshot, the
// observed heavy/light mix is folded back at the boundary, and replans land
// on the live trainer through ApplySnapshot. The controller plans over a
// generated profile trace the same size as the soak dataset, so its plan
// cut depths (0..5) are all servable by the cluster's standard pipeline.
func mixFlipEpochs(rep *Report, cfg Config, tr *trainsim.Trainer) error {
	trace, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(cfg.Samples), cfg.Seed)
	if err != nil {
		return fmt.Errorf("soak: mix trace: %w", err)
	}
	ctrl, err := core.NewController(core.ControllerConfig{
		Trace: trace,
		Env: policy.Env{
			Bandwidth: 1e9, ComputeCores: 4, StorageCores: cfg.Shards,
			StorageSlowdown: 1, GPU: gpu.AlexNet, Shards: cfg.Shards,
		},
		Clock: simclock.NewVirtual(time.Unix(0, 0)),
		// Alpha 1 / hysteresis 1: the boundary observation right after the
		// flip becomes dominant replans immediately; 0.25 is wide enough
		// that the pre-flip sparse mix never drifts from the trace baseline.
		Drift: profiler.DriftConfig{Alpha: 1, MixThreshold: 0.25, Hysteresis: 1},
	})
	if err != nil {
		return fmt.Errorf("soak: mix controller: %w", err)
	}
	ctrl.OnReplan(tr.ApplySnapshot)

	for e := uint64(1); e <= uint64(cfg.Epochs); e++ {
		er, err := tr.RunEpochSnapshot(e, ctrl.Current(), nil)
		if err != nil {
			return fmt.Errorf("soak: epoch %d: %w", e, err)
		}
		rep.Epochs = append(rep.Epochs, er)
		rep.Failed += er.Failed
		if _, _, err := ctrl.ObserveEpoch(profiler.EpochSample{
			Epoch: e, Bandwidth: 1e9, MixHeavy: er.Heavy, MixTotal: er.Samples,
		}); err != nil {
			return fmt.Errorf("soak: epoch %d observe: %w", e, err)
		}
	}
	for _, ev := range ctrl.History()[1:] { // [0] is the initial plan
		rep.Replans++
		rep.ReplanReasons = append(rep.ReplanReasons, ev.Reason)
	}
	snap := tr.PrepMetrics().Snapshot()
	rep.Prepsched = &snap
	return nil
}

// heavyMember deterministically assigns samples to a seeded heavy set
// covering ~pct percent of the dataset (splitmix64 over the sample id).
func heavyMember(seed uint64, sample int, pct uint64) bool {
	x := seed + uint64(sample)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%100 < pct
}
