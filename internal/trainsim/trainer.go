// Package trainsim is the live training loop: a clairvoyant fetch scheduler
// (internal/prefetch) fetches samples from the storage server over the wire
// protocol (each carrying the offload split the plan assigned), loader
// workers take them from it one at a time and finish the remaining
// preprocessing locally under a compute-core budget, and batches, formed in
// completion order, occupy a simulated GPU. Because completion order forms
// the batches, a slow sample holds up only its own worker, and the workers
// share the scheduler's one queue with no classes or per-worker queues. It
// also hosts the profiler's stage-1 probes and stage-2 on-the-fly
// collection, mirroring Figure 2's flow end to end.
package trainsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/prefetch"
	"repro/internal/prepsched"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/wire"
)

// StorageClient is storage.Fetcher under the name benchmarks/ still compiles
// against; it goes when the benchmark is unfrozen (ROADMAP item 1 Step A).
type StorageClient = storage.Fetcher

// Config describes a training client.
type Config struct {
	// DialClient opens the storage session; the trainer calls it exactly
	// once and pipelines all requests over the shared session.
	DialClient func() (storage.Fetcher, error)
	// Workers is the local preprocessing parallelism; 0 means 4.
	Workers int
	// Lookahead is the number of fetch round trips the loader keeps in
	// flight per storage shard (internal/prefetch): the epoch's exact access
	// stream is derived from the seeded shuffle, partitioned per shard, and
	// fetched ahead of consumption at this depth, never more than
	// 8 × Lookahead × FetchBatchSize × shards stream positions ahead (the
	// reorder-buffer depth). 0 means 2×Workers.
	Lookahead int
	// StagingBytes budgets the artifacts fetched but not yet consumed;
	// 0 means defaultStagingBytes, negative means unbounded.
	StagingBytes int64
	// VarianceAware is not read. It stays declared only until benchmarks/
	// stops assigning it.
	VarianceAware bool
	// Classify is not read: the loader's workers take stream entries from
	// the fetch scheduler as each frees up, so there is no queue for a class
	// to reorder. It stays declared only until benchmarks/ stops assigning
	// it.
	Classify func(sample int) prepsched.Class
	// ComputeCores bounds concurrent local preprocessing; 0 means Workers.
	ComputeCores int
	// Pipeline is the preprocessing pipeline; nil means the tier's, and any
	// other must match it.
	Pipeline *pipeline.Pipeline
	// GPU is the simulated accelerator profile.
	GPU gpu.Model
	// BatchSize is the per-step batch; 0 means 32.
	BatchSize int
	// JobID seeds augmentation randomness; must match the value used when
	// dialing clients.
	JobID uint64
	// Clock drives GPU busy-time simulation and timing; nil means real.
	Clock simclock.Clock
	// Shuffle controls whether sample order is permuted each epoch.
	Shuffle bool
	// FetchBatchSize groups this many samples per storage round trip
	// (capped at wire.MaxBatchItems); 0 or 1 means per-sample fetches.
	FetchBatchSize int
	// DegradedMode keeps an epoch alive through per-sample fetch failures
	// (e.g. a dead shard of a sharded storage tier): failed samples are
	// skipped and counted in EpochReport.Failed instead of aborting the
	// epoch. An epoch in which every sample fails still errors.
	DegradedMode bool
}

// defaultStagingBytes is the staging budget when Config leaves StagingBytes
// zero.
const defaultStagingBytes = 64 << 20

// Trainer runs training epochs against a storage server.
type Trainer struct {
	cfg    Config
	client storage.Fetcher
	tier   storage.Tier
	closed bool
	mu     sync.Mutex
	pf     prefetch.Metrics
	// device is the simulated GPU for the trainer's whole life: an epoch
	// returns once its last batch is handed over, and that step runs while
	// the next epoch (or Close) begins.
	device *gpu.Stream
}

// EpochReport summarizes one epoch.
type EpochReport struct {
	Epoch   uint64
	Samples int
	Batches int
	// Duration runs from the epoch's start to the hand-off of its last batch
	// to the GPU; that batch's step ends after it, overlapping what follows.
	Duration     time.Duration
	BytesFetched int64
	// GPUBusy is the summed step time of the epoch's batches, whether or not
	// the last step has ended when the epoch returns.
	GPUBusy time.Duration
	// GPUUtilization is GPUBusy over Duration, clamped to 1: the last step
	// ends after Duration, so the raw ratio can exceed it.
	GPUUtilization float64
	Offloaded      int
	LocalCPU       time.Duration // summed local preprocessing time
	// Failed counts samples skipped in DegradedMode (fetches that kept
	// failing after the retry layer gave up, e.g. on a dead shard).
	Failed int
}

// New validates the config, resolves its defaults and dials the storage
// session once. A Pipeline that differs from the tier's is refused with a
// *pipeline.MismatchError.
func New(cfg Config) (*Trainer, error) {
	if cfg.DialClient == nil {
		return nil, errors.New("trainsim: DialClient is required")
	}
	if !cfg.GPU.Valid() {
		return nil, errors.New("trainsim: GPU model must have positive throughput")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("trainsim: workers %d", cfg.Workers)
	}
	if cfg.ComputeCores == 0 {
		cfg.ComputeCores = cfg.Workers
	}
	if cfg.ComputeCores < 1 {
		return nil, fmt.Errorf("trainsim: compute cores %d", cfg.ComputeCores)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("trainsim: batch size %d", cfg.BatchSize)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real()
	}
	if cfg.FetchBatchSize < 0 {
		return nil, fmt.Errorf("trainsim: fetch batch size %d", cfg.FetchBatchSize)
	}
	if cfg.FetchBatchSize == 0 {
		cfg.FetchBatchSize = 1
	}
	if cfg.FetchBatchSize > wire.MaxBatchItems {
		cfg.FetchBatchSize = wire.MaxBatchItems
	}
	if cfg.Lookahead < 0 {
		return nil, fmt.Errorf("trainsim: lookahead %d", cfg.Lookahead)
	}
	if cfg.Lookahead == 0 {
		cfg.Lookahead = 2 * cfg.Workers
	}
	if cfg.StagingBytes == 0 {
		cfg.StagingBytes = defaultStagingBytes
	}
	t := &Trainer{cfg: cfg, device: gpu.NewStream(cfg.GPU, cfg.Clock)}
	c, err := cfg.DialClient()
	if err != nil {
		return nil, fmt.Errorf("trainsim: dial: %w", err)
	}
	t.client, t.tier = c, c.Tier()
	if t.cfg.Pipeline == nil {
		t.cfg.Pipeline = pipeline.Standard(pipeline.StandardOptions{CropSize: t.tier.Pipeline.Crop, FlipP: t.tier.Pipeline.FlipP})
	}
	if fp := t.cfg.Pipeline.Fingerprint(); fp != t.tier.Pipeline {
		t.Close()
		return nil, &pipeline.MismatchError{Side: "trainer", Pipeline: fp, Other: "tier", OtherPipeline: t.tier.Pipeline}
	}
	if t.tier.Samples == 0 {
		t.Close()
		return nil, errors.New("trainsim: server reports empty dataset")
	}
	return t, nil
}

// N returns the dataset size reported by the server.
func (t *Trainer) N() int { return t.tier.Samples }

// Env is the planning environment of this trainer on its tier: the loader's
// cores (ComputeCores capped at Workers) and the GPU, the cores, slowdown and
// shard count the tier stated, and bandwidth, each shard's link in bytes/s.
func (t *Trainer) Env(bandwidth float64) policy.Env {
	return policy.Env{
		Bandwidth:       bandwidth,
		ComputeCores:    min(t.cfg.ComputeCores, t.cfg.Workers),
		StorageCores:    t.tier.Cores,
		StorageSlowdown: t.tier.Slowdown,
		GPU:             t.cfg.GPU,
		Shards:          t.tier.Shards,
	}
}

// Close waits for the GPU's last step, so that epochs followed by Close
// cover every step they submitted, and releases the storage session.
func (t *Trainer) Close() {
	t.device.Drain()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	if t.client != nil {
		t.client.Close()
	}
}

// PrefetchMetrics exposes the fetch scheduler's counters.
func (t *Trainer) PrefetchMetrics() *prefetch.Metrics { return &t.pf }

// PrepMetrics returns counters that are always zero; it stays only until
// benchmarks/ stops reading it.
func (t *Trainer) PrepMetrics() *prepsched.Metrics { return &prepsched.Metrics{} }

type sampleOutcome struct {
	wireBytes int
	localCPU  time.Duration
	offloaded bool
	failed    bool // degraded-mode skip, not a fatal error
	err       error
}

// RunEpoch trains one epoch under the plan. A nil plan means no offloading.
// When collector is non-nil the epoch runs in profiling mode: every sample
// is fetched raw and preprocessed locally with per-op measurement — the
// paper's stage-2 "first epoch without offloading".
//
// Every epoch runs the one loader (startLoader) over the shared storage
// session. A failure cancels the epoch's context, which unblocks in-flight
// fetches promptly without poisoning the session.
func (t *Trainer) RunEpoch(epoch uint64, plan *policy.Plan, collector *profiler.Collector) (EpochReport, error) {
	if plan != nil && plan.N() != t.tier.Samples {
		return EpochReport{}, fmt.Errorf("trainsim: plan covers %d samples, dataset has %d", plan.N(), t.tier.Samples)
	}
	clock := t.cfg.Clock
	start := clock.Now()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	results, stop, err := t.startLoader(ctx, cancel, epoch, plan, collector)
	if err != nil {
		return EpochReport{}, err
	}
	defer stop()

	report := EpochReport{Epoch: epoch}
	inBatch := 0
	var firstErr error
	for out := range results {
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		if out.failed {
			report.Failed++
			continue
		}
		report.Samples++
		report.BytesFetched += int64(out.wireBytes)
		report.LocalCPU += out.localCPU
		if out.offloaded {
			report.Offloaded++
		}
		inBatch++
		if inBatch == t.cfg.BatchSize {
			t.gpuStep(&report, inBatch)
			inBatch = 0
		}
	}
	if firstErr != nil {
		return EpochReport{}, firstErr
	}
	if report.Samples == 0 && report.Failed > 0 {
		return EpochReport{}, fmt.Errorf("trainsim: all %d samples failed in degraded mode", report.Failed)
	}
	if inBatch > 0 {
		t.gpuStep(&report, inBatch)
	}
	report.Duration = clock.Now().Sub(start)
	if report.Duration > 0 {
		report.GPUUtilization = gpu.Utilization(report.GPUBusy, report.Duration)
	}
	return report, nil
}

// startLoader starts the epoch's loader and returns the channel its
// outcomes arrive on, closed once the epoch drains or aborts. Four stages:
// prefetch.Order fixes the epoch's exact stream; a prefetch.Scheduler
// partitions it by the client's placement map (storage.ShardRouter — one
// link otherwise) and keeps Lookahead round trips in flight per shard;
// fetched entries wait in its staging slots under the byte budget; Workers
// goroutines each take the next entry with Scheduler.Next as they free up
// and finish it locally under the compute-core budget.
//
// stop tears the loader down and is safe after a normal drain: cancel the
// context (unblocks in-flight fetches), stop the scheduler (unblocks its
// Next and zeroes the staged-bytes gauge), then wait for the issue
// goroutines.
func (t *Trainer) startLoader(ctx context.Context, cancel context.CancelFunc, epoch uint64, plan *policy.Plan, collector *profiler.Collector) (<-chan sampleOutcome, func(), error) {
	sched, err := t.newScheduler(ctx, epoch, plan, collector)
	if err != nil {
		return nil, nil, err
	}

	// Two batches of outcomes: workers keep finishing samples while runEpoch
	// waits for the GPU to finish the previous step before taking the next.
	results := make(chan sampleOutcome, t.cfg.BatchSize*2)
	computeSem := make(chan struct{}, t.cfg.ComputeCores)
	var running atomic.Int32
	running.Store(int32(t.cfg.Workers))
	for w := 0; w < t.cfg.Workers; w++ {
		go func() {
			defer func() {
				if running.Add(-1) == 0 {
					close(results)
				}
			}()
			for {
				it, ok := sched.Next()
				if !ok || ctx.Err() != nil {
					return
				}
				out := t.processItem(it, epoch, collector, computeSem)
				select {
				case results <- out:
				case <-ctx.Done():
				}
				if out.err != nil {
					cancel()
					return
				}
			}
		}()
	}
	return results, func() {
		cancel()
		sched.Stop()
		sched.Wait()
	}, nil
}

// newScheduler builds the epoch's fetch scheduler over the shared session.
func (t *Trainer) newScheduler(ctx context.Context, epoch uint64, plan *policy.Plan, collector *profiler.Collector) (*prefetch.Scheduler, error) {
	shards := 1
	var shardOf func(uint32) int
	router, _ := t.client.(storage.ShardRouter)
	if router != nil {
		if s, f, ok := router.ShardInfo(); ok {
			shards, shardOf = s, f
		} else {
			router = nil
		}
	}
	split := func(sample int) int {
		if collector != nil {
			return 0 // the profiling epoch measures whole objects
		}
		return directiveFor(plan, sample)
	}
	fetch := func(shard int, samples []uint32, splits []int) ([]storage.FetchResult, error) {
		if router != nil {
			return router.FetchShard(ctx, shard, samples, splits, epoch)
		}
		return t.client.FetchBatch(ctx, samples, splits, epoch)
	}
	var down func(error) bool // fail fast on a dead shard only when its loss is tolerated
	if t.cfg.DegradedMode {
		down = func(err error) bool { return errors.Is(err, cluster.ErrShardDown) }
	}
	sched, err := prefetch.NewScheduler(prefetch.Config{
		Order:        prefetch.Order(t.cfg.JobID, epoch, t.tier.Samples, t.cfg.Shuffle),
		Shards:       shards,
		ShardOf:      shardOf,
		Depth:        t.cfg.Lookahead,
		BatchSize:    t.cfg.FetchBatchSize,
		Horizon:      8 * t.cfg.Lookahead * t.cfg.FetchBatchSize * shards,
		StagingBytes: max(t.cfg.StagingBytes, 0), // negative: unbounded
		Split:        split,
		Fetch:        fetch,
		Down:         down,
		Metrics:      &t.pf,
	})
	if err != nil {
		return nil, fmt.Errorf("trainsim: prefetch: %w", err)
	}
	return sched, nil
}

// processItem finishes one delivered stream entry locally: a failed fetch
// (per-item, or its whole round trip, after the retry layer gave up) skips
// just that sample when DegradedMode is on — so a dead shard costs exactly
// its own samples, never the epoch — and aborts the epoch otherwise.
func (t *Trainer) processItem(it prefetch.Item, epoch uint64, collector *profiler.Collector, computeSem chan struct{}) sampleOutcome {
	if it.Err != nil {
		if t.cfg.DegradedMode {
			return sampleOutcome{failed: true}
		}
		return sampleOutcome{err: fmt.Errorf("trainsim: fetch sample %d: %w", it.Sample, it.Err)}
	}
	return t.finishSample(it.Res, epoch, it.Sample, it.Split, collector, computeSem)
}

// gpuStep hands a batch to the GPU; it waits only for the previous step.
func (t *Trainer) gpuStep(report *EpochReport, size int) {
	report.GPUBusy += t.device.Submit(size)
	report.Batches++
}

// directiveFor packs one sample's plan decision (none: raw) into a fetch
// directive. Only a raw fetch has a fidelity and asks for only the rows the
// epoch's crop reads (storage.Rows); an offloaded cut is the bare split.
func directiveFor(plan *policy.Plan, i int) int {
	if plan == nil {
		return storage.Rows
	}
	if s := plan.Split(i); s != 0 {
		return s
	}
	return storage.PackDirective(0, plan.FidelityOf(i)) | storage.Rows
}

// finishSample runs the local part of one sample's preprocessing (or the
// profiling kernel, pipeline.Profile) under the compute-core budget.
func (t *Trainer) finishSample(res storage.FetchResult, epoch uint64, i, split int, collector *profiler.Collector, computeSem chan struct{}) sampleOutcome {
	// The directive packs (cut, fidelity) and Rows; only the cut matters
	// locally — a reduced-fidelity container decodes transparently from
	// fewer scans, and a sliced one to the same crop.
	split, _ = storage.UnpackDirective(split)
	seed := pipeline.Seed{Job: t.cfg.JobID, Epoch: epoch, Sample: uint64(i)}

	computeSem <- struct{}{}
	defer func() { <-computeSem }()

	cpuStart := time.Now()
	var out pipeline.Artifact
	if collector != nil {
		if res.Artifact.Kind != pipeline.KindRaw {
			return sampleOutcome{err: fmt.Errorf("trainsim: profiling fetch of sample %d returned %s", i, res.Artifact.Kind)}
		}
		full, st, err := t.cfg.Pipeline.Profile(res.Artifact.Raw, seed)
		if err != nil {
			return sampleOutcome{err: fmt.Errorf("trainsim: profile sample %d: %w", i, err)}
		}
		// The trace records stage sizes but not W×H, so read the record's
		// dimensions from the stored header.
		w, h, err := imaging.DecodeDims(res.Artifact.Raw)
		if err != nil {
			return sampleOutcome{err: fmt.Errorf("trainsim: decode dims: %w", err)}
		}
		if err := collector.Observe(uint32(i), st, w, h); err != nil {
			return sampleOutcome{err: err}
		}
		out = full
	} else {
		finished, err := t.cfg.Pipeline.RunRange(res.Artifact, split, t.cfg.Pipeline.Len(), seed)
		if err != nil {
			return sampleOutcome{err: fmt.Errorf("trainsim: preprocess sample %d (split %d): %w", i, split, err)}
		}
		out = finished
	}
	if out.Kind != pipeline.KindTensor {
		return sampleOutcome{err: fmt.Errorf("trainsim: sample %d produced %s, want tensor", i, out.Kind)}
	}
	// The simulated training step consumes the tensor by time, not by value;
	// return its pooled buffer so steady-state training stops allocating.
	out.Release()
	return sampleOutcome{
		wireBytes: res.WireBytes,
		localCPU:  time.Since(cpuStart),
		offloaded: split > 0,
	}
}
