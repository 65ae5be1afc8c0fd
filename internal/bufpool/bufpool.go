// Package bufpool is the size-classed buffer arena behind the repository's
// zero-allocation data plane. Every hot-path buffer — codec scratch planes,
// decoded pixel buffers, float tensors, wire frames — is drawn from here and
// returned when its owner is done, so the per-sample fetch/preprocess path
// stops allocating at steady state and GC pressure no longer inflates the
// per-op CPU times the profiler measures.
//
// # Ownership rules
//
// A buffer obtained from Get* is owned by the caller until it is passed to
// Put* (at which point the caller must drop every reference) or handed to an
// API documented as taking ownership. Put* is safe to call with any slice:
// only buffers whose capacity exactly matches a size class re-enter the
// pool, so foreign memory (store objects, cache-resident bytes, plain
// make() slices) is silently dropped rather than recycled. This is the
// package-level guarantee that a buffer that was never pooled can never be
// handed out twice.
//
// Returned buffers are not zeroed. Callers that require zeroed memory must
// clear the buffer themselves.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from minClass to maxClass. Requests above
// the largest class fall back to plain make and are never pooled; requests
// below the smallest class round up to it.
const (
	minClassBits = 6  // 64 B
	maxClassBits = 26 // 64 MiB — covers wire.MaxFrameSize
	numClasses   = maxClassBits - minClassBits + 1
)

// Stats counts arena traffic with atomic counters; read them via Snapshot.
type Stats struct {
	Gets     atomic.Uint64 // pooled-size requests served
	Misses   atomic.Uint64 // pooled-size requests that had to allocate
	Puts     atomic.Uint64 // buffers accepted back into the pool
	Rejected atomic.Uint64 // Put* calls dropped (foreign or oversized buffer)
}

// StatsSnapshot is a point-in-time copy of the arena counters.
type StatsSnapshot struct {
	Gets, Misses, Puts, Rejected uint64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Gets:     s.Gets.Load(),
		Misses:   s.Misses.Load(),
		Puts:     s.Puts.Load(),
		Rejected: s.Rejected.Load(),
	}
}

// arena is one element type's set of size-classed pools. The per-class pools
// store *[]T headers; a shared header pool recycles the headers themselves so
// both Get and Put are allocation-free at steady state.
type arena[T any] struct {
	classes [numClasses]sync.Pool // each holds *[]T with cap == classSize(i)
	headers sync.Pool             // spare *[]T with nil payload
	stats   Stats
}

// classFor returns the class index whose buffers can hold n elements, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for s := 1 << minClassBits; s < n; s <<= 1 {
		c++
	}
	return c
}

// classSize returns the capacity of class c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// get returns a []T of length n. Pool hits carry cap == classSize; misses
// and oversized requests allocate.
func (a *arena[T]) get(n int) []T {
	c := classFor(n)
	if c < 0 {
		a.stats.Misses.Add(1)
		return make([]T, n)
	}
	a.stats.Gets.Add(1)
	hp, _ := a.classes[c].Get().(*[]T)
	if hp == nil {
		a.stats.Misses.Add(1)
		return make([]T, classSize(c))[:n]
	}
	b := (*hp)[:n]
	*hp = nil
	a.headers.Put(hp)
	return b
}

// put returns b to its size class. Buffers whose capacity is not exactly a
// class size (foreign memory) are dropped.
func (a *arena[T]) put(b []T) {
	c := classFor(cap(b))
	if cap(b) == 0 || c < 0 || cap(b) != classSize(c) {
		a.stats.Rejected.Add(1)
		return
	}
	hp, _ := a.headers.Get().(*[]T)
	if hp == nil {
		hp = new([]T)
	}
	*hp = b[:0]
	a.classes[c].Put(hp)
	a.stats.Puts.Add(1)
}

var (
	bytes    arena[byte]
	uint16s  arena[uint16]
	float32s arena[float32]
)

// GetBytes returns a []byte of length n from the arena.
func GetBytes(n int) []byte { return bytes.get(n) }

// PutBytes returns b to the arena; the caller must drop all references.
func PutBytes(b []byte) { bytes.put(b) }

// GetUint16 returns a []uint16 of length n from the arena.
func GetUint16(n int) []uint16 { return uint16s.get(n) }

// PutUint16 returns u to the arena; the caller must drop all references.
func PutUint16(u []uint16) { uint16s.put(u) }

// GetFloat32 returns a []float32 of length n from the arena.
func GetFloat32(n int) []float32 { return float32s.get(n) }

// PutFloat32 returns f to the arena; the caller must drop all references.
func PutFloat32(f []float32) { float32s.put(f) }

// ByteStats returns the []byte arena counters.
func ByteStats() StatsSnapshot { return bytes.stats.Snapshot() }

// Float32Stats returns the []float32 arena counters.
func Float32Stats() StatsSnapshot { return float32s.stats.Snapshot() }
