package storage

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/pipeline"
)

// Executor runs preprocessing prefixes on the storage node under a bounded
// core budget: at most Cores ops execute concurrently, so storage-side CPU
// contention shows up as queueing latency exactly as it does on a real box.
// A Slowdown factor > 1 models a storage node with weaker cores than the
// compute node (the paper's future-work heterogeneous-CPU scenario) by
// stretching each op's occupancy.
type Executor struct {
	pipe     *pipeline.Pipeline
	sem      chan struct{}
	slowdown float64
	counters *Counters
}

// ErrNoOffload is returned when a prefix execution is requested but the
// executor has zero cores (offloading disabled).
var ErrNoOffload = errors.New("storage: offloading disabled (0 cores)")

// NewExecutor builds an executor with the given core budget. cores == 0
// disables offloading; slowdown < 1 is rejected (a faster storage node is
// modeled as slowdown == 1 with more cores).
func NewExecutor(p *pipeline.Pipeline, cores int, slowdown float64, counters *Counters) (*Executor, error) {
	if p == nil {
		return nil, errors.New("storage: executor needs a pipeline")
	}
	if cores < 0 {
		return nil, fmt.Errorf("storage: negative core budget %d", cores)
	}
	if slowdown < 1 {
		return nil, fmt.Errorf("storage: slowdown %.2f < 1", slowdown)
	}
	if counters == nil {
		counters = &Counters{}
	}
	e := &Executor{pipe: p, slowdown: slowdown, counters: counters}
	if cores > 0 {
		e.sem = make(chan struct{}, cores)
	}
	return e, nil
}

// Cores returns the configured core budget.
func (e *Executor) Cores() int {
	if e.sem == nil {
		return 0
	}
	return cap(e.sem)
}

// RunPrefix executes ops [0, split) on raw bytes, holding one core for the
// duration. split == 0 returns the raw artifact without touching the core
// budget.
func (e *Executor) RunPrefix(raw []byte, split int, seed pipeline.Seed) (pipeline.Artifact, error) {
	if split < 0 || split > e.pipe.Len() {
		return pipeline.Artifact{}, fmt.Errorf("%w: split %d of %d ops", pipeline.ErrBadSplit, split, e.pipe.Len())
	}
	if split == 0 {
		return pipeline.RawArtifact(raw), nil
	}
	if e.sem == nil {
		return pipeline.Artifact{}, ErrNoOffload
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	start := time.Now()
	art, err := e.pipe.RunRange(pipeline.RawArtifact(raw), 0, split, seed)
	elapsed := time.Since(start)
	if e.slowdown > 1 {
		// Occupy the core for the extra time a slower CPU would need.
		extra := time.Duration(float64(elapsed) * (e.slowdown - 1))
		time.Sleep(extra)
		elapsed += extra
	}
	e.counters.CPUNanos.Add(uint64(elapsed.Nanoseconds()))
	if err != nil {
		return pipeline.Artifact{}, err
	}
	e.counters.OpsExecuted.Add(uint64(split))
	return art, nil
}

// RunPrefixEncoded runs ops [0, split) and encodes the result straight into
// a pool-backed buffer, releasing the artifact's pixel/tensor scratch before
// returning. This keeps the server's per-request path allocation-free at
// steady state. The caller owns the encoded bytes and returns them with
// bufpool.PutBytes — the server's writer goroutine does so via wire.Recycle
// once the frame is on the wire.
func (e *Executor) RunPrefixEncoded(raw []byte, split int, seed pipeline.Seed) ([]byte, error) {
	art, err := e.RunPrefix(raw, split, seed)
	if err != nil {
		return nil, err
	}
	buf := bufpool.GetBytes(art.EncodeBound())[:0]
	encoded, err := art.AppendEncode(buf)
	art.Release()
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	return encoded, nil
}
