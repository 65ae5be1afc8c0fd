// Package engine is a discrete-event simulator of one training epoch over
// the disaggregated setup: storage-node CPU pool → capped network link →
// compute-node CPU pool → GPU with batch semantics. It replays a profiled
// trace under an offload plan and reports epoch time, per-resource busy
// time, and traffic — the quantities behind the paper's Figures 1d, 3, and
// 4. The live trainer (internal/trainsim) exercises the same policies over
// real sockets; the engine exists so full 40k–91k-sample epochs simulate in
// milliseconds, deterministically.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/policy"
)

// Config describes one epoch simulation.
type Config struct {
	Trace *dataset.Trace
	Plan  *policy.Plan
	Env   policy.Env

	// BatchSize is the GPU batch size; 0 means 256.
	BatchSize int
	// PrefetchWindow bounds in-flight samples (loader prefetch depth);
	// 0 means 4×BatchSize. Must be ≥ BatchSize.
	PrefetchWindow int
	// RTT is the request/response round-trip latency added to each fetch
	// before its transfer starts (propagation, not bandwidth). Deep
	// prefetching hides it almost entirely, as in real loaders.
	RTT time.Duration
	// ShuffleSeed, when non-zero, permutes the sample visit order the way
	// a real epoch shuffle does. Zero keeps trace order.
	ShuffleSeed uint64
	// Shards simulates a sharded storage tier: K independent storage-CPU
	// pools (Env.StorageCores each) and K independent links (Env.Bandwidth
	// each), with every sample served by the shard cluster.ShardMap places
	// it on. 0 or 1 reproduces the single-server setup exactly.
	Shards int

	// Lookahead switches the loader model from the reactive global window
	// to clairvoyant per-shard scheduling: the epoch's access stream is
	// known up front (the shuffle is seeded), so each shard issues its own
	// positions in stream order, keeping up to Lookahead transfers in
	// flight on its link regardless of where the global consumption cursor
	// sits. 0 keeps the reactive window model. Mutually exclusive with a
	// non-zero PrefetchWindow (errLookaheadConfig).
	Lookahead int

	// PrepSched selects how local preprocessing is dispatched over
	// PrepWorkers single-core workers, stream position i's home being
	// worker i%W. The default, PrepSchedSteal, models the product's loader,
	// whose workers take samples from one shared queue as they free up (an
	// earliest-free worker).
	PrepSched PrepSchedModel
	// PrepWorkers is the local-prep pool's worker count; 0 means
	// Env.ComputeCores.
	PrepWorkers int

	// Fidelity, when non-nil, enables progressive byte accounting: a raw
	// (split-0) sample whose plan entry withholds scans ships only the
	// ladder's prefix fraction of its stored size, at zero storage-CPU cost
	// (the server slices, never re-encodes). nil ignores the plan's fidelity
	// dimension entirely, reproducing pre-progressive runs byte for byte.
	Fidelity *policy.FidelityModel
}

// PrepSchedModel names a local-preprocessing service model.
type PrepSchedModel int

// Local preprocessing service models.
const (
	// PrepSchedSteal lets an idle worker take a queued sample from a busy
	// one: each sample starts on the earliest-free worker, staying home
	// when home is one of them; running elsewhere counts as a steal.
	PrepSchedSteal PrepSchedModel = iota
	// PrepSchedFIFO queues each sample on its home worker however backed up
	// it is: the head-of-line blocking of a static per-worker loader.
	PrepSchedFIFO
)

// errPrepSchedConfig marks an unknown PrepSched model.
var errPrepSchedConfig = errors.New("engine: unknown prepsched model")

// errLookaheadConfig marks contradictory loader knobs: a clairvoyant
// lookahead combined with a reactive prefetch window.
var errLookaheadConfig = errors.New("engine: lookahead and reactive window knobs conflict")

// defaultRequestOverhead is the per-fetch framing added to every sample's
// transfer, the value the committed DES records (BENCH_pr5–pr10) were
// generated with. It is a constant of those records, not a measurement of
// the live wire: a one-sample round trip there frames 42 B of request and
// 34 B around the artifact, and a batch amortises both.
const defaultRequestOverhead = 53

// Result summarizes a simulated epoch.
type Result struct {
	EpochTime    time.Duration
	TrafficBytes int64

	StorageBusy time.Duration // summed storage-core busy time
	LinkBusy    time.Duration // link transmit time
	ComputeBusy time.Duration // summed compute-core busy time
	GPUBusy     time.Duration

	GPUUtilization   float64
	SamplesOffloaded int
	Batches          int

	// PerLinkIdle is each shard link's idle time inside its own active
	// period: lastTransferEnd − busy. Gaps here are transfers the link
	// could have run but the loader had not issued yet — the quantity the
	// clairvoyant scheduler drives to zero.
	PerLinkIdle []time.Duration
	// LinkIdleFrac is the mean per-link idle fraction of the epoch:
	// (Σ PerLinkIdle / K) / EpochTime.
	LinkIdleFrac float64

	// PerWorkerIdle is each preprocessing worker's stall time:
	// prepMakespan − busy, where prepMakespan is the last local completion
	// across all workers. A large value is a worker that ran dry while
	// another worker's queue — heavy samples pinned behind the static
	// assignment — still held the epoch open; the imbalance work-stealing
	// removes.
	PerWorkerIdle []time.Duration
	// WorkerStallFrac is the mean per-worker stalled fraction of the
	// preprocessing phase: (Σ PerWorkerIdle / W) / prepMakespan.
	WorkerStallFrac float64
	// Steals counts samples PrepSchedSteal ran away from their home worker.
	Steals int

	// MeanQuality is the plan's mean per-sample reconstruction quality under
	// the fidelity ladder (1 without a ladder or with no reduced samples).
	MeanQuality float64
	// SamplesReduced counts raw samples shipped at reduced fidelity.
	SamplesReduced int
	// FidelityBytesSaved is traffic avoided by withholding refinement scans
	// relative to shipping every raw sample in full.
	FidelityBytesSaved int64
}

// Pool models k identical servers by list scheduling. It is the one
// resource model of the simulated tier: storage cores and links (k = 1)
// here and in the load harness (internal/loadgen), and each job's prep
// workers and accelerators. A job starts on the earliest-free server, no
// earlier than it arrives, the lowest-numbered one on a tie.
type Pool struct {
	// tree is a tournament over the servers, padded to a power of two:
	// leaf len(free)+s is server s, and each inner node names the
	// earlier-free of its children's servers, the lower-numbered on a tie.
	tree  []int32
	free  []time.Duration // when each server next falls idle; padding never does
	busy  []time.Duration // each server's summed service time
	total time.Duration   // the servers' summed service time
	last  time.Duration   // latest completion scheduled so far
}

// NewPool returns an idle pool of servers servers; a pool of none accepts
// no work.
func NewPool(servers int) *Pool {
	n := 1
	for n < servers {
		n *= 2
	}
	p := &Pool{tree: make([]int32, 2*n), free: make([]time.Duration, n), busy: make([]time.Duration, servers)}
	for s := servers; s < n; s++ {
		p.free[s] = math.MaxInt64
	}
	// Every server is idle at 0, so each inner node's winner is its left
	// child's.
	for i := 2*n - 1; i > 0; i-- {
		p.tree[i] = int32(i - n)
		if i < n {
			p.tree[i] = p.tree[2*i]
		}
	}
	return p
}

// Schedule runs a job arriving at arrival for dur on the earliest-free
// server and returns its completion time. Arrivals must be offered in
// queue order; the pool is FIFO only across calls.
func (p *Pool) Schedule(arrival, dur time.Duration) time.Duration {
	return p.run(int(p.tree[1]), arrival, dur)
}

// place runs a job whose home is server home and reports its completion
// time and server: home when home is among the earliest-free, else where
// Schedule would start it; pinned, on home however busy home is.
func (p *Pool) place(home int, pinned bool, arrival, dur time.Duration) (time.Duration, int) {
	s := home
	if !pinned && p.free[home] != p.free[p.tree[1]] {
		s = int(p.tree[1])
	}
	return p.run(s, arrival, dur), s
}

// run serves the job on server s and replays the matches on s's path to
// the root.
func (p *Pool) run(s int, arrival, dur time.Duration) time.Duration {
	tree, free := p.tree, p.free
	end := max(free[s], arrival) + dur
	free[s] = end
	w, fw := int32(s), end
	for i := len(free) + s; i > 1; i >>= 1 {
		// Rival o wins on an earlier free time, or on a tie as the left
		// (lower-numbered) child: in whole nanoseconds f <= fw is f < fw+1.
		o := tree[i^1]
		if f := free[o]; f < fw+time.Duration(i&1) {
			w, fw = o, f
		}
		tree[i>>1] = w
	}
	p.busy[s] += dur
	p.total += dur
	p.last = max(p.last, end)
	return end
}

// resolve is the one validation routine of the engine: it checks a job's
// trace, plan, environment and loader knobs, and fills the defaults the
// kernel reads (batch, window, prep workers, shard count). Run resolves
// its Config directly; RunFleet builds one Config per job and resolves each.
func (cfg *Config) resolve() error {
	if cfg.Trace == nil || cfg.Trace.N() == 0 {
		return errors.New("engine: empty trace")
	}
	if cfg.Plan == nil {
		return errors.New("engine: nil plan")
	}
	if err := cfg.Env.Validate(); err != nil {
		return err
	}
	if cfg.Plan.N() != cfg.Trace.N() {
		return fmt.Errorf("engine: plan covers %d samples, trace has %d", cfg.Plan.N(), cfg.Trace.N())
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 256
	}
	batch := cfg.BatchSize
	if batch < 1 {
		return fmt.Errorf("engine: batch size %d", batch)
	}
	if cfg.Lookahead < 0 {
		return fmt.Errorf("engine: lookahead depth %d", cfg.Lookahead)
	}
	if cfg.Lookahead > 0 && cfg.PrefetchWindow > 0 {
		return fmt.Errorf("%w: lookahead %d with reactive window %d", errLookaheadConfig, cfg.Lookahead, cfg.PrefetchWindow)
	}
	if cfg.PrepSched != PrepSchedSteal && cfg.PrepSched != PrepSchedFIFO {
		return fmt.Errorf("%w %d", errPrepSchedConfig, int(cfg.PrepSched))
	}
	if cfg.PrepWorkers < 0 {
		return fmt.Errorf("engine: prep workers %d", cfg.PrepWorkers)
	}
	if cfg.PrepWorkers == 0 {
		cfg.PrepWorkers = cfg.Env.ComputeCores
	}
	if cfg.Lookahead == 0 {
		if cfg.PrefetchWindow == 0 {
			cfg.PrefetchWindow = 4 * batch
		}
		if cfg.PrefetchWindow < batch {
			return fmt.Errorf("engine: prefetch window %d < batch %d", cfg.PrefetchWindow, batch)
		}
	}
	if cfg.Fidelity != nil {
		if err := cfg.Fidelity.Validate(); err != nil {
			return err
		}
	}
	if cfg.Env.StorageCores == 0 && cfg.Plan.OffloadedCount() > 0 {
		return errors.New("engine: plan offloads but storage has 0 cores")
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("engine: shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	return nil
}

// tier is the storage side every job of a replay queues on: one storage-CPU
// pool and one link PER SHARD — a sample queues only behind its own shard's
// work, which is how the sharded tier multiplies both binding resources —
// plus the optional cross-job artifact cache in front of them.
type tier struct {
	env      policy.Env // Bandwidth, StorageCores and StorageSlowdown are per shard
	shardMap *cluster.ShardMap
	// Empty pools on a tier without cores: resolve admits no offloading
	// plan there, so nothing is scheduled on them.
	storage []*Pool
	links   []*Pool
	rtt     time.Duration

	// Cross-job artifact cache (fleet.go), admit-until-full; cacheCap 0
	// disables it.
	cacheCap, cacheUsed int64
	resident            map[cacheKey]bool
}

// cacheKey identifies one shared artifact inside a replay.
type cacheKey struct {
	dataset uint64
	sample  uint32
	cut     uint8
}

// newTier builds the shared side of a replay from a resolved Config.
func newTier(cfg Config, cacheBytes int64) (*tier, error) {
	shardMap, err := cluster.NewShardMap(cfg.Shards)
	if err != nil {
		return nil, err
	}
	t := &tier{
		env:      cfg.Env,
		shardMap: shardMap,
		storage:  make([]*Pool, cfg.Shards),
		links:    make([]*Pool, cfg.Shards),
		rtt:      cfg.RTT,
		cacheCap: cacheBytes,
		resident: make(map[cacheKey]bool),
	}
	for s := range t.links {
		t.storage[s] = NewPool(cfg.Env.StorageCores)
		t.links[s] = NewPool(1)
	}
	return t, nil
}

// busy sums storage-core and link busy time over the shards.
func (t *tier) busy() (storage, link time.Duration) {
	for s := range t.links {
		storage += t.storage[s].total
		link += t.links[s].total
	}
	return storage, link
}

// job is one training job's side of a replay: its loader (visit order,
// issue gates), its local preprocessing model, its batch accumulator and
// accelerator, and its share of the accounting. Every job owns its compute
// cores and GPUs; only the tier is shared.
type job struct {
	cfg     Config // resolved
	tier    *tier
	dataset uint64 // cache share key; 0 keeps the job's artifacts private

	order    []int           // stream position → sample ID
	next     int             // stream position issued next
	consumed []time.Duration // when each position's batch left the GPU

	// Clairvoyant issue state (Lookahead > 0): each shard's transfer-end
	// history (the depth gate).
	shardEnds [][]time.Duration

	prep *Pool // PrepWorkers workers
	gpu  *Pool

	batchStart int
	batchReady time.Duration // max ready time in the current batch
	batches    int

	reduced, steals                    int
	traffic, fidelitySaved             int64
	cacheHits, cacheMisses, cacheSaved int64
}

// newJob builds one job over t from a resolved Config.
func newJob(cfg Config, t *tier, dataset uint64) *job {
	n := cfg.Trace.N()
	j := &job{
		cfg:      cfg,
		tier:     t,
		dataset:  dataset,
		order:    make([]int, n),
		consumed: make([]time.Duration, n),
		prep:     NewPool(cfg.PrepWorkers),
		gpu:      NewPool(cfg.Env.GPUs()),
	}
	for i := range j.order {
		j.order[i] = i
	}
	if cfg.ShuffleSeed != 0 {
		rng := rand.New(rand.NewPCG(cfg.ShuffleSeed, cfg.ShuffleSeed^0xb533_1157))
		rng.Shuffle(n, func(a, b int) { j.order[a], j.order[b] = j.order[b], j.order[a] })
	}
	if cfg.Lookahead > 0 {
		j.shardEnds = make([][]time.Duration, cfg.Shards)
	}
	return j
}

// shard is the storage server that owns stream position i's sample.
func (j *job) shard(i int) int { return j.tier.shardMap.ShardOf(uint32(j.order[i])) }

// gate returns when the loader may issue its next sample.
func (j *job) gate() time.Duration {
	i := j.next
	if j.cfg.Lookahead == 0 {
		// Reactive: at most PrefetchWindow samples in flight.
		if i >= j.cfg.PrefetchWindow {
			return j.consumed[i-j.cfg.PrefetchWindow]
		}
		return 0
	}
	// Depth gate: this shard keeps at most Lookahead transfers in flight;
	// issue k waits for delivery of the shard's own k−D.
	ends := j.shardEnds[j.shard(i)]
	if k := len(ends); k >= j.cfg.Lookahead {
		return ends[k-j.cfg.Lookahead]
	}
	return 0
}

// step carries the job's next sample through the pipeline: loader gate →
// (shared cache |) owning shard's storage pool → owning shard's link →
// local preprocessing → batch.
func (j *job) step() {
	t, i := j.tier, j.next
	id := j.order[i]
	rec := &j.cfg.Trace.Records[id]
	split := j.cfg.Plan.Split(id)
	shard := j.shard(i)
	at := j.gate()

	// The plan prices the sample (policy.Plan.ShippedBytes, the planner's
	// own rule): artifact is its cut at full fidelity, bytes what the link
	// carries, both with framing; a raw one at its record's Sliced, which the
	// planner does not read yet (ROADMAP item 15).
	artifact := j.cfg.Plan.ShippedBytes(j.cfg.Trace, id, nil)
	bytes := j.cfg.Plan.ShippedBytes(j.cfg.Trace, id, j.cfg.Fidelity)
	if split == 0 && rec.Sliced > 0 {
		artifact, bytes = rec.Sliced, bytes*rec.Sliced/artifact
	}
	full := artifact + defaultRequestOverhead
	bytes += defaultRequestOverhead
	key := cacheKey{dataset: j.dataset, sample: uint32(id), cut: uint8(split)}
	shared := t.cacheCap > 0 && j.dataset != 0
	if shared && t.resident[key] {
		// Another tenant of the share group already pulled this artifact.
		j.cacheHits++
		j.cacheSaved += full
	} else {
		if split > 0 {
			dur := time.Duration(float64(rec.PrefixTime(split)) * t.env.StorageSlowdown)
			at = t.storage[shard].Schedule(at, dur)
		}
		if bytes < full {
			j.fidelitySaved += full - bytes
			j.reduced++
		}
		j.traffic += bytes
		// The link serializes transfers at the configured bandwidth. The RTT
		// delays the transfer's start but does not occupy the link.
		xfer := time.Duration(float64(bytes) / t.env.Bandwidth * float64(time.Second))
		at = t.links[shard].Schedule(at+t.rtt, xfer)
		if j.shardEnds != nil {
			j.shardEnds[shard] = append(j.shardEnds[shard], at)
		}
		if shared {
			j.cacheMisses++
			if t.cacheUsed+artifact <= t.cacheCap {
				t.resident[key] = true
				t.cacheUsed += artifact
			}
		}
	}

	if suffix := rec.TotalTime() - rec.PrefixTime(split); suffix > 0 {
		home := i % j.cfg.PrepWorkers
		var w int
		if at, w = j.prep.place(home, j.cfg.PrepSched == PrepSchedFIFO, at, suffix); w != home {
			j.steals++
		}
	}

	j.batchReady = max(j.batchReady, at)
	j.next++
	if j.next-j.batchStart == j.cfg.BatchSize || j.next == len(j.order) {
		j.flushBatch()
	}
}

// flushBatch runs positions [batchStart, next) as one batch on the
// earliest-free accelerator; the last batch of an epoch may be partial.
func (j *job) flushBatch() {
	end := j.gpu.Schedule(j.batchReady, j.cfg.Env.GPU.BatchTime(j.next-j.batchStart))
	for i := j.batchStart; i < j.next; i++ {
		j.consumed[i] = end
	}
	j.batchStart = j.next
	j.batchReady = 0
	j.batches++
}

// Run simulates the epoch: the kernel with one job, alone on its tier.
func Run(cfg Config) (Result, error) {
	if err := cfg.resolve(); err != nil {
		return Result{}, err
	}
	t, err := newTier(cfg, 0)
	if err != nil {
		return Result{}, err
	}
	j := newJob(cfg, t, 0)
	for j.next < len(j.order) {
		j.step()
	}

	res := Result{
		EpochTime:          j.gpu.last,
		TrafficBytes:       j.traffic,
		ComputeBusy:        j.prep.total,
		GPUBusy:            j.gpu.total,
		Steals:             j.steals,
		SamplesOffloaded:   cfg.Plan.OffloadedCount(),
		Batches:            j.batches,
		MeanQuality:        1,
		SamplesReduced:     j.reduced,
		FidelityBytesSaved: j.fidelitySaved,
	}
	if cfg.Fidelity != nil {
		res.MeanQuality = cfg.Plan.MeanQuality(*cfg.Fidelity)
	}
	res.StorageBusy, res.LinkBusy = t.busy()
	var idleSum time.Duration
	for _, l := range t.links {
		res.PerLinkIdle = append(res.PerLinkIdle, l.last-l.total)
		idleSum += l.last - l.total
	}
	// Stall is measured against the preprocessing makespan, the last local
	// completion on any worker.
	last, workers := j.prep.last, time.Duration(len(j.prep.busy))
	for _, busy := range j.prep.busy {
		res.PerWorkerIdle = append(res.PerWorkerIdle, last-busy)
	}
	if last > 0 {
		res.WorkerStallFrac = float64(workers*last-res.ComputeBusy) / float64(workers) / float64(last)
	}
	if res.EpochTime > 0 {
		res.GPUUtilization = float64(res.GPUBusy) / float64(res.EpochTime) / float64(cfg.Env.GPUs())
		res.LinkIdleFrac = float64(idleSum) / float64(cfg.Shards) / float64(res.EpochTime)
	}
	return res, nil
}

// RunPolicy plans with p and simulates the resulting epoch — the common
// composition used by the evaluation harness.
func RunPolicy(p policy.Policy, tr *dataset.Trace, env policy.Env, batch int) (Result, *policy.Plan, error) {
	plan, err := p.Plan(tr, env)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := Run(Config{Trace: tr, Plan: plan, Env: env, BatchSize: batch, Shards: env.ShardCount()})
	if err != nil {
		return Result{}, nil, err
	}
	return res, plan, nil
}
