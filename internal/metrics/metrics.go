// Package metrics provides lightweight, concurrency-safe counters, gauges,
// and histograms used by the storage server, trainer, and evaluation
// harness. A Registry groups named instruments and renders a stable text
// snapshot for reports.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Negative deltas are ignored so the
// counter stays monotone.
func (c *Counter) Add(delta int64) {
	if delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct {
	v atomic.Int64
}

// Set stores val.
func (g *Gauge) Set(val int64) { g.v.Store(val) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates durations in HDR-style integer-nanosecond buckets:
// exact below 64 ns, then 64 sub-buckets per power of two, so a reported
// quantile is within about 1.6 % of the true one across the whole range with
// a fixed 30 KB of counters. Count, sum, min and max are exact. It is the one
// latency histogram of the repo: the live registry below and the load
// harness's simulated SLO classes (internal/loadgen) record into the same
// type. The zero value is ready to use.
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
	return time.Duration(h.quantileLocked(q))
}

func (h *Histogram) quantileLocked(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return min(max(bucketMid(i), h.min), h.max)
		}
	}
	return h.max
}

// Stats summarizes the histogram in seconds, every field read under one
// lock so they describe the same instant.
func (h *Histogram) Stats() HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{
		Count: int64(h.count),
		Sum:   time.Duration(h.sum).Seconds(),
		Min:   time.Duration(h.min).Seconds(),
		Max:   time.Duration(h.max).Seconds(),
		P50:   time.Duration(h.quantileLocked(0.5)).Seconds(),
		P99:   time.Duration(h.quantileLocked(0.99)).Seconds(),
	}
	if h.count > 0 {
		s.Mean = s.Sum / float64(h.count)
	}
	return s
}

// Registry holds named instruments. The zero value is unusable; use
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures a point-in-time view of every instrument, sorted by
// name, suitable for logging or report generation.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramStats
}

// HistogramStats summarizes a histogram at snapshot time, in seconds.
type HistogramStats struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P99   float64
}

// Snapshot captures every instrument's current value; each histogram's
// statistics are read under that histogram's lock, so they agree with each
// other.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.histograms)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = h.Stats()
	}
	return s
}

// String renders the snapshot as stable, sorted text.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "counter %s = %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "gauge %s = %d\n", k, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "hist %s count=%d mean=%.4g p50=%.4g p99=%.4g min=%.4g max=%.4g\n",
			k, h.Count, h.Mean, h.P50, h.P99, h.Min, h.Max)
	}
	return b.String()
}
