// Package trainsim is the live training loop: loader workers fetch samples
// from the storage server over the wire protocol (each carrying the offload
// split the plan assigned), finish the remaining preprocessing locally under
// a compute-core budget, assemble batches, and occupy a simulated GPU for
// each batch. It also hosts the profiler's stage-1 probes and stage-2
// on-the-fly collection, mirroring Figure 2's flow end to end.
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
	// fetched ahead of consumption at this depth. 0 means 2×Workers.
	Lookahead int
	// LookaheadHorizon bounds how many stream positions ahead of
	// consumption the scheduler may issue (the reorder-buffer depth);
	// 0 means 8 × Lookahead × fetch-batch × shards.
	LookaheadHorizon int
	// StagingBytes budgets the artifacts fetched but not yet consumed;
	// 0 means DefaultStagingBytes, negative means unbounded.
	StagingBytes int64
	// VarianceAware is not read: a non-nil Classify is the condition. It
	// stays declared only until benchmarks/ stops assigning it.
	VarianceAware bool
	// Classify maps a sample index to its preprocessing class, typically a
	// prepsched.Classifier closure over the stage-2 cost trace: delivered
	// stream entries are spread heavy/light over per-worker work-stealing
	// deques (internal/prepsched), so light samples flow around heavy ones
	// instead of queueing behind them. Nil means every sample is Light,
	// which is FIFO handoff. Output artifacts do not depend on it —
	// preprocessing is deterministic in (job, epoch, sample) per cut, so
	// only completion timing changes.
	Classify func(sample int) prepsched.Class
	// ComputeCores bounds concurrent local preprocessing; 0 means Workers.
	ComputeCores int
	// Pipeline is the preprocessing pipeline (must match the server's).
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

// DefaultStagingBytes is the staging budget when Config leaves StagingBytes
// zero.
const DefaultStagingBytes = 64 << 20

// Trainer runs training epochs against a storage server.
type Trainer struct {
	cfg    Config
	client storage.Fetcher
	n      int
	closed bool
	mu     sync.Mutex
	// snap is the live plan snapshot epochs read splits from; it can rotate
	// mid-epoch via ApplySnapshot without restarting the stream.
	snap atomic.Pointer[policy.PlanSnapshot]
	pf   prefetch.Metrics
	ps   prepsched.Metrics
	// pool is the latest epoch's prep pool, kept so a torn-down epoch can be
	// checked for stranded samples.
	pool *prepsched.Pool[prefetch.Item]
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
	// Heavy counts successfully processed samples Config.Classify labelled
	// heavy (0 with a nil Classify). The count is order-independent, so it
	// is deterministic for a given seed.
	Heavy int
	// PlanVersion is the control-plane version the epoch ran under (0 when
	// the epoch was driven by RunEpoch with a bare plan).
	PlanVersion policy.PlanVersion
}

// New validates the config, resolves its defaults and dials the storage
// session once.
func New(cfg Config) (*Trainer, error) {
	if cfg.DialClient == nil {
		return nil, errors.New("trainsim: DialClient is required")
	}
	if cfg.Pipeline == nil {
		return nil, errors.New("trainsim: Pipeline is required")
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
	if cfg.LookaheadHorizon < 0 {
		return nil, fmt.Errorf("trainsim: lookahead horizon %d", cfg.LookaheadHorizon)
	}
	if cfg.StagingBytes == 0 {
		cfg.StagingBytes = DefaultStagingBytes
	}
	if cfg.Classify == nil {
		cfg.Classify = func(int) prepsched.Class { return prepsched.Light }
	}
	t := &Trainer{cfg: cfg, device: gpu.NewStream(cfg.GPU, cfg.Clock)}
	c, err := cfg.DialClient()
	if err != nil {
		return nil, fmt.Errorf("trainsim: dial: %w", err)
	}
	t.client = c
	t.n = c.NumSamples()
	if t.n == 0 {
		t.Close()
		return nil, errors.New("trainsim: server reports empty dataset")
	}
	return t, nil
}

// N returns the dataset size reported by the server.
func (t *Trainer) N() int { return t.n }

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

// PrepMetrics exposes the prep pool's counters.
func (t *Trainer) PrepMetrics() *prepsched.Metrics { return &t.ps }

// ApplySnapshot rotates the live plan mid-epoch: the epoch's scheduler reads
// splits at issue time, so every stream entry not yet issued is fetched
// under the new snapshot's cut depths while entries already staged are kept
// — they were fetched at cuts that remain correct (preprocessing is
// deterministic in (job, epoch, sample) for whichever cut they carried), so
// nothing is flushed. Every round trip issued after the swap is stamped with
// the snapshot's version; requests in flight keep the one they were issued
// under. Wire this to core.Controller.OnReplan for live replanning.
func (t *Trainer) ApplySnapshot(snap *policy.PlanSnapshot) {
	if snap == nil || snap.Plan == nil || snap.Plan.N() != t.n {
		return
	}
	old := t.snap.Swap(snap)
	if old != nil && old.Version != snap.Version {
		t.pf.NoteReplan()
	}
}

type sampleOutcome struct {
	wireBytes int
	localCPU  time.Duration
	offloaded bool
	heavy     bool // Config.Classify said Heavy
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
	t.snap.Store(nil) // a bare plan supersedes any earlier snapshot
	return t.runEpoch(epoch, plan, 0, collector)
}

// RunEpochSnapshot trains one epoch under a versioned plan snapshot from the
// control plane. The snapshot's version rides every fetch the epoch issues
// (storage.WithPlanVersion) and is recorded in the report. Swapping
// snapshots between epochs is always safe: preprocessing is deterministic in
// (job, epoch, sample), so requests stamped with different versions — e.g.
// in-flight fetches racing a swap — return identical artifacts for the same
// split.
func (t *Trainer) RunEpochSnapshot(epoch uint64, snap *policy.PlanSnapshot, collector *profiler.Collector) (EpochReport, error) {
	if snap == nil {
		return EpochReport{}, errors.New("trainsim: nil plan snapshot")
	}
	t.snap.Store(snap)
	return t.runEpoch(epoch, snap.Plan, snap.Version, collector)
}

func (t *Trainer) runEpoch(epoch uint64, plan *policy.Plan, version policy.PlanVersion, collector *profiler.Collector) (EpochReport, error) {
	if plan != nil && plan.N() != t.n {
		return EpochReport{}, fmt.Errorf("trainsim: plan covers %d samples, dataset has %d", plan.N(), t.n)
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

	report := EpochReport{Epoch: epoch, PlanVersion: version}
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
		if out.heavy {
			report.Heavy++
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
// outcomes arrive on, closed once the epoch drains or aborts. Five stages:
// prefetch.Order fixes the epoch's exact stream; a prefetch.Scheduler
// partitions it by the client's placement map (storage.ShardRouter — one
// link otherwise) and keeps Lookahead round trips in flight per shard;
// fetched entries wait in its staging slots under the byte budget; one
// dispatcher takes them in stream order, classifies each and spreads it over
// the prepsched.Pool's per-worker deques (entry seq to deque seq%W, light
// before heavy, idle workers steal); Workers goroutines finish them locally
// under the compute-core budget. The pool's capacity bound keeps the
// dispatcher from outrunning the workers and defeating the staging budget.
//
// stop tears the loader down in dependency order and is safe after a normal
// drain: cancel the context (unblocks in-flight fetches), stop the pool
// (unblocks the dispatcher's Dispatch), stop the scheduler (unblocks its
// Next and zeroes the staged-bytes gauge), then wait for the
// issue goroutines and the dispatcher.
func (t *Trainer) startLoader(ctx context.Context, cancel context.CancelFunc, epoch uint64, plan *policy.Plan, collector *profiler.Collector) (<-chan sampleOutcome, func(), error) {
	pool, err := prepsched.NewPool[prefetch.Item](t.cfg.Workers, 2*max(t.cfg.Workers, t.cfg.BatchSize), &t.ps)
	if err != nil {
		return nil, nil, fmt.Errorf("trainsim: prep pool: %w", err)
	}
	sched, err := t.newScheduler(ctx, epoch, plan, collector)
	if err != nil {
		return nil, nil, err
	}
	t.pool = pool

	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		defer pool.Close()
		for seq := 0; ; seq++ {
			it, ok := sched.Next()
			if !ok || !pool.Dispatch(seq, it, t.cfg.Classify(it.Sample)) {
				return
			}
		}
	}()

	// Two batches of outcomes: workers keep finishing samples while runEpoch
	// waits for the GPU to finish the previous step before taking the next.
	results := make(chan sampleOutcome, t.cfg.BatchSize*2)
	computeSem := make(chan struct{}, t.cfg.ComputeCores)
	var pwg sync.WaitGroup
	for w := 0; w < t.cfg.Workers; w++ {
		pwg.Add(1)
		go func(w int) {
			defer pwg.Done()
			for {
				it, class, ok := pool.Take(w)
				if !ok || ctx.Err() != nil {
					return
				}
				out := t.processItem(it, epoch, collector, computeSem)
				out.heavy = class == prepsched.Heavy
				select {
				case results <- out:
				case <-ctx.Done():
				}
				if out.err != nil {
					cancel()
					return
				}
			}
		}(w)
	}
	go func() {
		pwg.Wait()
		close(results)
	}()
	return results, func() {
		cancel()
		pool.Stop()
		sched.Stop()
		sched.Wait()
		dwg.Wait()
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
	horizon := t.cfg.LookaheadHorizon
	if horizon == 0 {
		horizon = 8 * t.cfg.Lookahead * t.cfg.FetchBatchSize * shards
	}
	split := func(sample int) int {
		if collector != nil {
			return 0
		}
		if s := t.snap.Load(); s != nil && s.Plan != nil && s.Plan.N() == t.n {
			return directiveFor(s.Plan, sample)
		}
		if plan == nil {
			return 0
		}
		return directiveFor(plan, sample)
	}
	fetch := func(shard int, samples []uint32, splits []int) ([]storage.FetchResult, error) {
		rctx := ctx
		if s := t.snap.Load(); s != nil {
			rctx = storage.WithPlanVersion(ctx, uint32(s.Version))
		}
		if router != nil {
			return router.FetchShard(rctx, shard, samples, splits, epoch)
		}
		return t.client.FetchBatch(rctx, samples, splits, epoch)
	}
	sched, err := prefetch.NewScheduler(prefetch.Config{
		Order:        prefetch.Order(t.cfg.JobID, epoch, t.n, t.cfg.Shuffle),
		Shards:       shards,
		ShardOf:      shardOf,
		Depth:        t.cfg.Lookahead,
		BatchSize:    t.cfg.FetchBatchSize,
		Horizon:      horizon,
		StagingBytes: max(t.cfg.StagingBytes, 0), // negative: unbounded
		Split:        split,
		Fetch:        fetch,
		FailFast:     t.cfg.DegradedMode,
		Down:         func(err error) bool { return errors.Is(err, cluster.ErrShardDown) },
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

// directiveFor packs one sample's plan decision into a fetch directive.
// Fidelity only exists on the raw object — offloaded cuts ship artifacts
// with no scan structure, so their directive is the bare split.
func directiveFor(plan *policy.Plan, i int) int {
	s := plan.Split(i)
	if s != 0 {
		return s
	}
	return storage.PackDirective(0, plan.FidelityOf(i))
}

// finishSample runs the local part of one sample's preprocessing (or the
// profiling trace) under the compute-core budget.
func (t *Trainer) finishSample(res storage.FetchResult, epoch uint64, i, split int, collector *profiler.Collector, computeSem chan struct{}) sampleOutcome {
	// The directive packs (cut, fidelity); only the cut matters locally —
	// a reduced-fidelity container decodes transparently from fewer scans.
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
		full, st, err := t.cfg.Pipeline.Trace(res.Artifact.Raw, seed)
		if err != nil {
			return sampleOutcome{err: fmt.Errorf("trainsim: profile sample %d: %w", i, err)}
		}
		// The trace records stage sizes but not W×H, so read the record's
		// dimensions from the stored header.
		w, h, err := decodedDims(res.Artifact.Raw)
		if err != nil {
			return sampleOutcome{err: err}
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
