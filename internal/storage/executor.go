package storage

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// Executor runs preprocessing prefixes on the storage node under a bounded
// core budget: at most Cores ops execute concurrently, so storage-side CPU
// contention shows up as queueing latency exactly as it does on a real box.
// A Slowdown factor > 1 models a storage node with weaker cores than the
// compute node (the paper's future-work heterogeneous-CPU scenario) by
// stretching each op's occupancy.
//
// A prefix the server runs on a stored object reads the object's decoded
// planes from its store slot: the object's first offload decodes it whole
// into the slot, on the core and in CPUNanos, and every later one crops from
// the planes with nothing left to decode.
type Executor struct {
	pipe     *pipeline.Pipeline
	sem      chan struct{}
	slowdown float64
	counters *Counters
	// wholeDecodes counts the slots planes has filled or tried to.
	wholeDecodes atomic.Int64
}

// errNoOffload is returned when a prefix execution is requested but the
// executor has zero cores (offloading disabled).
var errNoOffload = errors.New("storage: offloading disabled (0 cores)")

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
	if !(slowdown >= 1) || math.IsInf(slowdown, 0) {
		return nil, fmt.Errorf("storage: slowdown %.2f is not a finite value >= 1", slowdown)
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

// cores returns the configured core budget.
func (e *Executor) cores() int {
	if e.sem == nil {
		return 0
	}
	return cap(e.sem)
}

// runPrefix executes ops [0, split) on raw bytes, holding one core for the
// duration, from the decoded planes in sl when raw is a stored object whose
// slot sl is (nil: decoding raw). split == 0 returns the raw artifact
// without touching the core budget.
func (e *Executor) runPrefix(raw []byte, sl *planeSlot, split int, seed pipeline.Seed) (pipeline.Artifact, error) {
	if split < 0 || split > e.pipe.Len() {
		return pipeline.Artifact{}, fmt.Errorf("%w: split %d of %d ops", pipeline.ErrBadSplit, split, e.pipe.Len())
	}
	if split == 0 {
		return pipeline.RawArtifact(raw), nil
	}
	if e.sem == nil {
		return pipeline.Artifact{}, errNoOffload
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	start := time.Now()
	src := pipeline.RawArtifact(raw)
	if sl != nil {
		src.Planes = e.planes(sl, raw)
	}
	art, err := e.pipe.RunRange(src, 0, split, seed)
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

// planes returns the decoded planes in sl, decoding raw, the object whose
// slot sl is, into it on the slot's first use; a caller that comes meanwhile
// waits for that decode. A whole decode that fails leaves the slot empty for
// good, and the prefix decodes raw as it would with no slot, failing only
// where that fails: a crop need not read the faulty unit.
func (e *Executor) planes(sl *planeSlot, raw []byte) *imaging.Planes {
	sl.once.Do(func() {
		e.wholeDecodes.Add(1)
		sl.planes, _ = imaging.DecodePlanes(raw) // nil on a fault: the crop decodes raw
		if sl.planes != nil {
			e.counters.PlaneBytes.Add(uint64(sl.planes.Bytes()))
		}
	})
	return sl.planes
}

// RunPrefixEncoded runs ops [0, split) on raw and encodes the result
// straight into a pool-backed buffer, releasing the artifact's pixel/tensor
// scratch before returning. This keeps the server's per-request path
// allocation-free at steady state. The caller owns the encoded bytes and
// returns them with bufpool.PutBytes — the server's writer goroutine does so
// via wire.Recycle once the frame is on the wire. It decodes raw on every
// call; the server's prefixes read the store's decoded planes instead.
func (e *Executor) RunPrefixEncoded(raw []byte, split int, seed pipeline.Seed) ([]byte, error) {
	return e.runPrefixEncoded(raw, nil, split, seed)
}

// runPrefixEncoded is RunPrefixEncoded from the decoded planes in sl, as
// runPrefix.
func (e *Executor) runPrefixEncoded(raw []byte, sl *planeSlot, split int, seed pipeline.Seed) ([]byte, error) {
	art, err := e.runPrefix(raw, sl, split, seed)
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
