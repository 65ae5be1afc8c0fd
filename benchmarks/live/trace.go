package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// Tracing lives entirely in the benchmark: spans are recorded by wrappers at
// the two seams the trainer already offers (Config.DialClient and
// Config.Clock) and around each RunEpoch call. An untraced phase installs
// none of this.

// span is one timed interval at a layer boundary. Spans of one epoch share
// that epoch's span as Parent; times are offsets from the recorder's start.
type span struct {
	Name   string        `json:"name"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Shard  int           `json:"shard"` // -1: not tied to one shard
	Items  int           `json:"items"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

const (
	spanEpoch    = "trainsim.epoch"
	spanFetch    = "storage.fetch"
	spanStep     = "gpu.step"
	spanStepWait = "trainsim.step_wait"
)

// recorder keeps spans in memory; they are aggregated, and optionally
// written out, only after the traced phase has ended.
type recorder struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	next     uint64
	epoch    uint64    // span ID of the epoch in progress
	lastStep time.Time // end of the previous GPU step, or the epoch's start
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span inside the epoch in progress; between timed epochs
// (the warm-up epoch) nothing is recorded.
func (r *recorder) add(name string, start, end time.Time, shard, items int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(name, start, end, shard, items)
}

func (r *recorder) addLocked(name string, start, end time.Time, shard, items int) {
	if r.epoch == 0 {
		return
	}
	r.next++
	r.spans = append(r.spans, span{Name: name, ID: r.next, Parent: r.epoch, Shard: shard, Items: items,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
}

// step records one GPU step and, before it, the gap since the previous step
// (or the epoch's start): the time the step waited for data.
func (r *recorder) step(start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(spanStepWait, r.lastStep, start, -1, 0)
	r.addLocked(spanStep, start, end, -1, 0)
	r.lastStep = end
}

// beginEpoch opens the epoch span that later spans name as their parent; the
// returned function closes it.
func (r *recorder) beginEpoch() (end func()) {
	start := time.Now()
	r.mu.Lock()
	r.next++
	id := r.next
	r.epoch, r.lastStep = id, start
	r.mu.Unlock()
	return func() {
		now := time.Now()
		r.mu.Lock()
		r.spans = append(r.spans, span{Name: spanEpoch, ID: id, Shard: -1, Start: start.Sub(r.t0), End: now.Sub(r.t0)})
		r.epoch = 0
		r.mu.Unlock()
	}
}

func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// tracedClient records one span per storage round trip.
type tracedClient struct {
	trainsim.StorageClient
	rec *recorder
}

func (c tracedClient) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	start := time.Now()
	res, err := c.StorageClient.Fetch(ctx, sample, split, epoch)
	c.rec.add(spanFetch, start, time.Now(), -1, 1)
	return res, err
}

func (c tracedClient) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	start := time.Now()
	res, err := c.StorageClient.FetchBatch(ctx, samples, splits, epoch)
	c.rec.add(spanFetch, start, time.Now(), -1, len(samples))
	return res, err
}

// tracedRouter additionally keeps the per-shard issue path of a sharded
// client visible to the lookahead scheduler, recording which shard each
// round trip went to.
type tracedRouter struct {
	tracedClient
	router storage.ShardRouter
}

func (c tracedRouter) ShardInfo() (int, func(uint32) int, bool) { return c.router.ShardInfo() }

func (c tracedRouter) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	start := time.Now()
	res, err := c.router.FetchShard(ctx, shard, samples, splits, epoch)
	c.rec.add(spanFetch, start, time.Now(), shard, len(samples))
	return res, err
}

func traceClient(c trainsim.StorageClient, rec *recorder) trainsim.StorageClient {
	tc := tracedClient{StorageClient: c, rec: rec}
	if router, ok := c.(storage.ShardRouter); ok {
		return tracedRouter{tracedClient: tc, router: router}
	}
	return tc
}

// tracedClock records each GPU step, the trainer's only Sleep.
type tracedClock struct {
	simclock.Clock
	rec *recorder
}

func (c tracedClock) Sleep(d time.Duration) {
	start := time.Now()
	c.Clock.Sleep(d)
	c.rec.step(start, time.Now())
}
