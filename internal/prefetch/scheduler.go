package prefetch

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Config describes one epoch's lookahead schedule.
type Config struct {
	// Order is the epoch's exact visit order (see Order). The scheduler
	// keeps a reference; callers must not mutate it while the scheduler
	// runs.
	Order []int
	// Shards is the storage fan-out width; 1 for a single server.
	Shards int
	// ShardOf maps a sample to its owning shard. Required when Shards > 1;
	// ignored (all samples on shard 0) otherwise.
	ShardOf func(sample uint32) int
	// Depth is the number of concurrent fetch round trips kept in flight
	// per shard; 0 means 2. This is the per-shard depth target that keeps
	// each link saturated independently of the others.
	Depth int
	// BatchSize groups this many samples per round trip; 0 or 1 means
	// per-sample fetches. Callers are responsible for respecting any wire
	// protocol batch cap.
	BatchSize int
	// Horizon bounds how far ahead of consumption (in stream positions) the
	// scheduler may issue; <= 0 means unbounded. It caps the reorder buffer
	// so a fast shard cannot race the whole epoch ahead of a slow one.
	Horizon int
	// StagingBytes is the budget on fetched-but-unconsumed artifact bytes;
	// <= 0 means unbounded. The gate is checked at issue time against bytes
	// charged at completion, so in-flight round trips may overshoot it by
	// up to Shards×Depth×BatchSize samples — a soft budget that bounds the
	// staging footprint without stalling completions. The entry at the
	// consumption cursor is always admitted regardless of budget, so the
	// stream can never deadlock on it.
	StagingBytes int64
	// Split returns the pipeline cut to request for a sample. It is read
	// at issue time, so a control-plane replan rotates cuts for not-yet-
	// issued stream entries without flushing anything already staged
	// (staged artifacts stay correct: preprocessing is deterministic in
	// (job, epoch, sample) for whatever cut they were fetched at). Nil
	// means cut 0 for every sample.
	Split func(sample int) int
	// Fetch issues one round trip for a sub-batch that lives entirely on
	// one shard. It must return either len(samples) results or an error
	// describing the whole round trip. Required.
	Fetch func(shard int, samples []uint32, splits []int) ([]storage.FetchResult, error)
	// FailFast marks a shard dead on its first Down-classified failure;
	// the shard's remaining stream entries then complete immediately with
	// that error instead of waiting out a retry storm each. Healthy shards
	// keep streaming. Without FailFast every entry is attempted.
	FailFast bool
	// Down classifies an error as a shard-level outage (e.g.
	// cluster.ErrShardDown) for FailFast. Nil means no error qualifies.
	Down func(error) bool
	// Metrics receives instrumentation; nil means a private, unobserved
	// Metrics.
	Metrics *Metrics
}

// Item is one delivered stream entry. Exactly one of Err and Res is
// meaningful: on Err the fetch for this entry failed (per-item or as part of
// a failed round trip) after any retry layer below Fetch gave up.
type Item struct {
	// Pos is the entry's position in the epoch stream.
	Pos int
	// Sample is the dataset sample ID.
	Sample int
	// Split is the pipeline cut the fetch was issued with.
	Split int
	// Res is the fetch result (zero value when Err is non-nil).
	Res storage.FetchResult
	// Err is the fetch failure, nil on success.
	Err error
}

// slot states. Consumption is tracked by the cursor, not a state.
const (
	slotPending = iota
	slotIssued
	slotDone
)

type slot struct {
	res   storage.FetchResult
	err   error
	split int
	bytes int64
	state uint8
}

// Scheduler prefetches one epoch's access stream across the shard fan-out.
// Shards×Depth issue goroutines each keep one round trip in flight against
// their shard, claiming work from per-shard queues derived from the stream;
// Next delivers results in exact stream order. Safe for concurrent Next
// calls (workers race for successive positions).
type Scheduler struct {
	cfg  Config
	m    *Metrics
	mu   sync.Mutex
	cond *sync.Cond

	slots  []slot
	shardQ [][]int // stream positions per shard, in stream order
	qnext  []int   // next unclaimed index into shardQ[s]
	cursor int     // next stream position Next will deliver
	staged int64   // bytes fetched but not yet delivered
	down   []error // first Down-classified error per shard (FailFast)

	stopped bool
	wg      sync.WaitGroup
}

// NewScheduler validates the config, partitions the stream per shard, and
// starts the issue goroutines. Callers must drain Next or call Stop.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Fetch == nil {
		return nil, errors.New("prefetch: Fetch is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 1 && cfg.ShardOf == nil {
		return nil, fmt.Errorf("prefetch: ShardOf is required for %d shards", cfg.Shards)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	c := &Scheduler{
		cfg:    cfg,
		m:      cfg.Metrics,
		slots:  make([]slot, len(cfg.Order)),
		shardQ: make([][]int, cfg.Shards),
		qnext:  make([]int, cfg.Shards),
		down:   make([]error, cfg.Shards),
	}
	c.cond = sync.NewCond(&c.mu)
	for pos, sample := range cfg.Order {
		s := 0
		if cfg.Shards > 1 {
			s = cfg.ShardOf(uint32(sample))
			if s < 0 || s >= cfg.Shards {
				return nil, fmt.Errorf("prefetch: ShardOf(%d) = %d, want [0,%d)", sample, s, cfg.Shards)
			}
		}
		c.shardQ[s] = append(c.shardQ[s], pos)
	}
	for s := 0; s < cfg.Shards; s++ {
		for d := 0; d < cfg.Depth; d++ {
			c.wg.Add(1)
			go c.issueLoop(s)
		}
	}
	return c, nil
}

// claim takes up to BatchSize contiguous entries from shard s's queue,
// blocking on the staging budget and horizon gates. It returns the claimed
// stream positions appended to buf (empty when the shard's queue is
// exhausted or the scheduler stopped) and the shard's fail-fast error.
func (c *Scheduler) claim(s int, buf []int) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.stopped || c.qnext[s] >= len(c.shardQ[s]) {
			return buf, nil
		}
		pos := c.shardQ[s][c.qnext[s]]
		if pos == c.cursor || c.down[s] != nil {
			// Progress guarantee: the entry the consumer is waiting on is
			// always claimable, whatever the budget and horizon say; and a
			// dead shard's entries drain without occupying either gate.
			break
		}
		if c.cfg.StagingBytes > 0 && c.staged >= c.cfg.StagingBytes {
			c.m.budgetStalls.Add(1)
			c.cond.Wait()
			continue
		}
		if c.cfg.Horizon > 0 && pos >= c.cursor+c.cfg.Horizon {
			c.m.horizonStalls.Add(1)
			c.cond.Wait()
			continue
		}
		break
	}
	for len(buf) < c.cfg.BatchSize && c.qnext[s] < len(c.shardQ[s]) {
		pos := c.shardQ[s][c.qnext[s]]
		if len(buf) > 0 && c.down[s] == nil &&
			c.cfg.Horizon > 0 && pos >= c.cursor+c.cfg.Horizon {
			break
		}
		c.slots[pos].state = slotIssued
		buf = append(buf, pos)
		c.qnext[s]++
	}
	return buf, c.down[s]
}

// issueLoop is one of shard s's Depth in-flight fetch slots. The claim /
// fetch / complete buffers are reused across iterations so the steady-state
// loop does not allocate.
func (c *Scheduler) issueLoop(s int) {
	defer c.wg.Done()
	claim := make([]int, 0, c.cfg.BatchSize)
	samples := make([]uint32, 0, c.cfg.BatchSize)
	splits := make([]int, 0, c.cfg.BatchSize)
	for {
		var downErr error
		claim, downErr = c.claim(s, claim[:0])
		if len(claim) == 0 {
			return
		}
		samples, splits = samples[:0], splits[:0]
		for _, pos := range claim {
			sample := c.cfg.Order[pos]
			samples = append(samples, uint32(sample))
			sp := 0
			if c.cfg.Split != nil {
				sp = c.cfg.Split(sample)
			}
			splits = append(splits, sp)
		}
		c.m.issued.Add(int64(len(claim)))
		var res []storage.FetchResult
		err := downErr
		if err == nil {
			res, err = c.cfg.Fetch(s, samples, splits)
			if err == nil && len(res) != len(samples) {
				err = fmt.Errorf("prefetch: shard %d returned %d results for %d samples", s, len(res), len(samples))
			}
		}
		c.complete(s, claim, splits, res, err)
	}
}

// complete records one round trip's outcome and wakes the consumer.
func (c *Scheduler) complete(s int, claim, splits []int, res []storage.FetchResult, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && c.cfg.FailFast && c.down[s] == nil && c.cfg.Down != nil && c.cfg.Down(err) {
		c.down[s] = err
	}
	for k, pos := range claim {
		sl := &c.slots[pos]
		sl.split = splits[k]
		switch {
		case err != nil:
			sl.err = err
			c.m.failed.Add(1)
		case res[k].Err != nil:
			sl.err = res[k].Err
			c.m.failed.Add(1)
			if c.cfg.FailFast && c.down[s] == nil && c.cfg.Down != nil && c.cfg.Down(res[k].Err) {
				c.down[s] = res[k].Err
			}
		default:
			sl.res = res[k]
			if !c.stopped {
				// After Stop no consumer will release these bytes; keep the
				// result (harmless) but don't charge an abandoned epoch to
				// the staging gauge.
				sl.bytes = int64(res[k].Artifact.WireSize())
				c.staged += sl.bytes
				c.m.addStaged(sl.bytes)
			}
			c.m.completed.Add(1)
			switch {
			case res[k].WireBytes == 0:
				c.m.cacheHits.Add(1)
			case splits[k] > 0:
				c.m.offloaded.Add(1)
			default:
				c.m.raw.Add(1)
			}
		}
		sl.state = slotDone
	}
	c.cond.Broadcast()
}

// Next blocks until the next stream entry is ready and delivers it,
// transferring ownership of its staged bytes to the caller. It returns
// ok=false once the stream is exhausted or the scheduler stopped.
func (c *Scheduler) Next() (Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.stopped || c.cursor >= len(c.cfg.Order) {
			return Item{}, false
		}
		if c.slots[c.cursor].state == slotDone {
			break
		}
		c.cond.Wait()
	}
	pos := c.cursor
	sl := &c.slots[pos]
	it := Item{Pos: pos, Sample: c.cfg.Order[pos], Split: sl.split, Res: sl.res, Err: sl.err}
	c.releaseLocked(sl)
	c.cursor++
	c.cond.Broadcast()
	return it, true
}

// releaseLocked returns one slot's staged bytes and drops its artifact
// reference.
func (c *Scheduler) releaseLocked(sl *slot) {
	c.staged -= sl.bytes
	c.m.addStaged(-sl.bytes)
	sl.res = storage.FetchResult{}
	sl.bytes = 0
}

// Stop aborts the stream: pending claims stop, blocked Next calls return
// false. It does not wait for in-flight fetches — cancel the context their
// Fetch closure captured to unblock them, then Wait.
func (c *Scheduler) Stop() {
	c.mu.Lock()
	c.stopped = true
	// Return the staged bytes of everything fetched but never consumed, so
	// an aborted epoch leaves the staged-bytes gauge at zero.
	for pos := c.cursor; pos < len(c.slots); pos++ {
		if c.slots[pos].bytes > 0 {
			c.releaseLocked(&c.slots[pos])
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Wait blocks until every issue goroutine has exited (the stream drained or
// Stop was called and in-flight fetches returned).
func (c *Scheduler) Wait() {
	c.wg.Wait()
}
