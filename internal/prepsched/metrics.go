package prepsched

// Metrics is the prep stage's counter set, which the trainer no longer
// fills: its workers take stream entries straight from the fetch
// scheduler, so there is no dispatch, pop, steal or stall to count. It stays
// only because benchmarks/live reads it (ROADMAP 1A(vi)).
type Metrics struct{}

// MetricsSnapshot is the shape benchmarks/live reads; every field is 0.
type MetricsSnapshot struct {
	Light   int64 `json:"light"`
	Heavy   int64 `json:"heavy"`
	OwnPops int64 `json:"own_pops"`
	Steals  int64 `json:"steals"`
	Stalls  int64 `json:"stalls"`
}

// Snapshot returns the zero snapshot. Nil-safe.
func (m *Metrics) Snapshot() MetricsSnapshot { return MetricsSnapshot{} }
