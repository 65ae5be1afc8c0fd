package perfbench

// SLO records and the perf-trajectory gate. The load generator
// (internal/loadgen) measures per-fetch-class latency distributions; this
// file freezes them into a versioned, diffable record (SLORecord) and
// compares two records with a noise threshold (CompareSLO — the CI gate).

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/loadgen"
)

// SLORecordVersion is bumped whenever SLORecord's shape changes
// incompatibly; CompareSLO refuses cross-version diffs.
const SLORecordVersion = 1

// DefaultNoise is the default relative regression threshold for CompareSLO:
// p99 may rise and throughput may fall by up to this fraction before the
// gate fails. It must sit below any regression CI is expected to catch (the
// acceptance bar is an injected 20% p99 regression).
const DefaultNoise = 0.10

// SLOClass is one fetch class's latency distribution in milliseconds —
// fixed units so records from different runs diff cleanly.
type SLOClass struct {
	Count  uint64  `json:"count"`
	Shed   uint64  `json:"shed"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// SLOScenario is one load-generator run: a named workload with its offered
// and delivered rates and the per-class distributions.
type SLOScenario struct {
	Name          string              `json:"name"`
	Sessions      int                 `json:"sessions"`
	Offered       uint64              `json:"offered"`
	Completed     uint64              `json:"completed"`
	Shed          uint64              `json:"shed"`
	OfferedRPS    float64             `json:"offered_rps"`
	ThroughputRPS float64             `json:"throughput_rps"`
	ShedRate      float64             `json:"shed_rate"`
	MaxQueueDepth int                 `json:"max_queue_depth"`
	Classes       map[string]SLOClass `json:"classes"`
}

// SLORecord is the versioned output of `sophon-bench -load`: one record per
// run, one scenario per workload. CI commits the previous record and diffs
// each new run against it with CompareSLO.
type SLORecord struct {
	Kind      string        `json:"kind"` // always "SLO"
	Version   int           `json:"version"`
	GoVersion string        `json:"go_version"`
	Seed      uint64        `json:"seed"`
	Scenarios []SLOScenario `json:"scenarios"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ScenarioFromReport freezes one loadgen report into an SLO scenario.
func ScenarioFromReport(name string, r *loadgen.Report) SLOScenario {
	s := SLOScenario{
		Name:          name,
		Sessions:      r.Sessions,
		Offered:       r.Offered,
		Completed:     r.Completed,
		Shed:          r.Shed,
		OfferedRPS:    r.OfferedRPS,
		ThroughputRPS: r.ThroughputRPS,
		ShedRate:      r.ShedRate,
		MaxQueueDepth: r.MaxQueueDepth,
		Classes:       make(map[string]SLOClass, len(r.Classes)),
	}
	for class, c := range r.Classes {
		s.Classes[class] = SLOClass{
			Count:  c.Count,
			Shed:   c.Shed,
			P50Ms:  ms(c.P50),
			P90Ms:  ms(c.P90),
			P99Ms:  ms(c.P99),
			P999Ms: ms(c.P999),
			MaxMs:  ms(c.Max),
			MeanMs: ms(c.Mean),
		}
	}
	return s
}

// CompareSLO diffs cur against prev and returns one message per regression
// past the noise threshold (noise <= 0 → DefaultNoise): throughput down, a
// scenario or class gone, or a class p99/p999 up. An empty slice means the
// gate passes. New scenarios and classes in cur never fail the gate — they
// become the baseline for the next run.
func CompareSLO(prev, cur SLORecord, noise float64) []string {
	if noise <= 0 {
		noise = DefaultNoise
	}
	var regs []string
	if prev.Version != cur.Version {
		return []string{fmt.Sprintf("record version changed %d → %d; re-baseline instead of diffing", prev.Version, cur.Version)}
	}
	curByName := make(map[string]SLOScenario, len(cur.Scenarios))
	for _, s := range cur.Scenarios {
		curByName[s.Name] = s
	}
	for _, p := range prev.Scenarios {
		c, ok := curByName[p.Name]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: scenario disappeared", p.Name))
			continue
		}
		if p.ThroughputRPS > 0 && c.ThroughputRPS < p.ThroughputRPS*(1-noise) {
			regs = append(regs, fmt.Sprintf("%s: throughput %.0f rps → %.0f rps (-%.1f%%, threshold %.0f%%)",
				p.Name, p.ThroughputRPS, c.ThroughputRPS,
				100*(1-c.ThroughputRPS/p.ThroughputRPS), 100*noise))
		}
		classes := make([]string, 0, len(p.Classes))
		for class := range p.Classes {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			pc := p.Classes[class]
			cc, ok := c.Classes[class]
			if !ok {
				regs = append(regs, fmt.Sprintf("%s/%s: class disappeared", p.Name, class))
				continue
			}
			for _, q := range []struct {
				name       string
				prev, curr float64
			}{
				{"p99", pc.P99Ms, cc.P99Ms},
				{"p999", pc.P999Ms, cc.P999Ms},
			} {
				if q.prev > 0 && q.curr > q.prev*(1+noise) {
					regs = append(regs, fmt.Sprintf("%s/%s: %s %.3f ms → %.3f ms (+%.1f%%, threshold %.0f%%)",
						p.Name, class, q.name, q.prev, q.curr,
						100*(q.curr/q.prev-1), 100*noise))
				}
			}
		}
	}
	return regs
}
