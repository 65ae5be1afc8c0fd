package prefetch

import "sync/atomic"

// Metrics is the scheduler's shared instrumentation. One Metrics value can
// outlive many per-epoch Schedulers (counters accumulate across epochs), so
// the monitor watches one object for the lifetime of a trainer. All methods
// are safe for concurrent use.
type Metrics struct {
	issued        atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	cacheHits     atomic.Int64
	offloaded     atomic.Int64
	raw           atomic.Int64
	stagedBytes   atomic.Int64
	stagedPeak    atomic.Int64
	budgetStalls  atomic.Int64
	horizonStalls atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of the counters, shaped for the
// monitor's /stats JSON.
type MetricsSnapshot struct {
	// Issued counts samples handed to fetch round trips (including fail-fast
	// synthetic completions for dead shards).
	Issued int64 `json:"issued"`
	// Completed counts samples fetched successfully.
	Completed int64 `json:"completed"`
	// Failed counts samples whose fetch failed (per-item or whole-chunk).
	Failed int64 `json:"failed"`
	// CacheHits / Offloaded / Raw split Completed by the tier that served
	// the artifact, deepest first: a shared-cache hit moves zero wire bytes,
	// an offloaded fetch carries a positive pipeline cut, a raw fetch
	// carries cut 0.
	CacheHits int64 `json:"cache_hits"`
	Offloaded int64 `json:"offloaded"`
	Raw       int64 `json:"raw"`
	// StagedBytes is the current footprint of fetched-but-unconsumed
	// artifacts; StagedPeakBytes is its high-water mark.
	StagedBytes     int64 `json:"staged_bytes"`
	StagedPeakBytes int64 `json:"staged_peak_bytes"`
	// BudgetStalls / HorizonStalls count issue-loop waits on the staging
	// byte budget and the stream-position horizon respectively.
	BudgetStalls  int64 `json:"budget_stalls"`
	HorizonStalls int64 `json:"horizon_stalls"`
}

// Snapshot copies the counters. Safe on a nil receiver (returns zeros) so
// callers can snapshot an optional Metrics unconditionally.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		Issued:          m.issued.Load(),
		Completed:       m.completed.Load(),
		Failed:          m.failed.Load(),
		CacheHits:       m.cacheHits.Load(),
		Offloaded:       m.offloaded.Load(),
		Raw:             m.raw.Load(),
		StagedBytes:     m.stagedBytes.Load(),
		StagedPeakBytes: m.stagedPeak.Load(),
		BudgetStalls:    m.budgetStalls.Load(),
		HorizonStalls:   m.horizonStalls.Load(),
	}
}

// addStaged moves the staged-bytes gauge and maintains its peak.
func (m *Metrics) addStaged(delta int64) {
	now := m.stagedBytes.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		peak := m.stagedPeak.Load()
		if now <= peak || m.stagedPeak.CompareAndSwap(peak, now) {
			return
		}
	}
}
