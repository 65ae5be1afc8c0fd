// Package metrics provides the repo's one latency histogram.
package metrics

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram accumulates durations in HDR-style integer-nanosecond buckets:
// exact below 64 ns, then 64 sub-buckets per power of two, so a reported
// quantile is within about 1.6 % of the true one across the whole range with
// a fixed 30 KB of counters. Count, sum, min and max are exact. The load
// harness's simulated SLO classes (internal/loadgen) record into it. The zero
// value is ready to use.
type Histogram struct {
	mu     sync.Mutex
	count  uint64
	sum    uint64 // nanoseconds
	min    uint64
	max    uint64
	counts [histBuckets]uint64
}

const (
	histSubBits = 6 // 64 sub-buckets per power of two
	histSub     = 1 << histSubBits
	// Indexes run [0, histSub) for the linear region, then one histSub-wide
	// segment per remaining power of two.
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketFor maps a value to its bucket.
func bucketFor(v uint64) int {
	if v < histSub {
		return int(v)
	}
	// top = position of the highest set bit above the sub-bucket field.
	top := bits.Len64(v) - histSubBits - 1
	return top*histSub + int(v>>uint(top))
}

// bucketMid returns the midpoint of bucket i, the inverse of bucketFor up to
// sub-bucket resolution. Bucket i >= histSub sits in segment top =
// i/histSub - 1 (bucketFor wrote top*histSub + v>>top with v>>top in
// [histSub, 2*histSub)), where buckets are 1<<top wide.
func bucketMid(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	top := uint(i/histSub - 1)
	return uint64(i%histSub+histSub)<<top + uint64(1)<<top/2
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketFor(v)]++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean to the nanosecond, or 0 with no
// observations.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the largest observation exactly, or 0 with none.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Quantile returns the q-quantile (0 <= q <= 1): the midpoint of the bucket
// holding that rank, clamped to the exact extremes, which are also what
// q <= 0 and q >= 1 return. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return time.Duration(min(max(bucketMid(i), h.min), h.max))
		}
	}
	return time.Duration(h.max)
}
