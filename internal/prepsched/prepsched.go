// Package prepsched classifies samples heavy or light from their profiled
// per-sample preprocessing cost (internal/profiler stage 2): a sample is
// heavy when its cost is at least a ratio of the dataset's mean cost.
//
// The live loader needs no classes. Its workers take stream entries from
// the fetch scheduler one at a time as each frees up, and the trainer forms
// batches in completion order, so a heavy sample delays only the worker
// running it; no queue holds light samples behind it. What remains is the
// classifier: sophon-bench -prepsched counts the heavy samples of the trace
// BENCH_pr9 simulates, and benchmarks/live still builds one (ROADMAP
// 1A(vi)).
package prepsched

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
)

// Class labels one sample's preprocessing weight.
type Class uint8

// Sample classes; light is the zero value.
const (
	light Class = iota
	heavy
)

// String names the class for logs and metrics.
func (c Class) String() string {
	if c == heavy {
		return "heavy"
	}
	return "light"
}

// defaultHeavyRatio is the classification threshold when a caller leaves the
// ratio zero: a sample is heavy when its profiled preprocessing cost is at
// least this multiple of the dataset's mean cost.
const defaultHeavyRatio = 4.0

// Classifier maps per-sample preprocessing cost to a class against a fixed
// threshold derived from the profiled cost distribution. It is immutable.
type Classifier struct {
	threshold time.Duration // cost >= threshold is heavy
	baseline  float64       // heavy fraction of the profile it was built from
}

// newClassifier derives the heavy threshold from a profiled per-sample cost
// distribution: threshold = ratio × mean(costs), ratio 0 meaning
// defaultHeavyRatio. The returned classifier also remembers the profile's
// own heavy fraction (BaselineHeavyFrac).
func newClassifier(costs []time.Duration, ratio float64) (*Classifier, error) {
	if len(costs) == 0 {
		return nil, errors.New("prepsched: classifier needs a non-empty cost profile")
	}
	if ratio == 0 {
		ratio = defaultHeavyRatio
	}
	if !(ratio > 0) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("prepsched: heavy ratio %v must be positive and finite", ratio)
	}
	var sum time.Duration
	for _, c := range costs {
		if c < 0 {
			return nil, fmt.Errorf("prepsched: negative sample cost %v", c)
		}
		sum += c
	}
	mean := float64(sum) / float64(len(costs))
	threshold := time.Duration(ratio * mean)
	heavy := 0
	for _, c := range costs {
		if c >= threshold && threshold > 0 {
			heavy++
		}
	}
	return &Classifier{threshold: threshold, baseline: float64(heavy) / float64(len(costs))}, nil
}

// FromTrace builds a classifier from a stage-2 trace, costing each sample at
// its full profiled preprocessing time.
func FromTrace(tr *dataset.Trace, ratio float64) (*Classifier, error) {
	if tr == nil || tr.N() == 0 {
		return nil, errors.New("prepsched: classifier needs a non-empty trace")
	}
	costs := make([]time.Duration, tr.N())
	for i := range tr.Records {
		costs[i] = tr.Records[i].TotalTime()
	}
	return newClassifier(costs, ratio)
}

// BaselineHeavyFrac is the heavy fraction of the cost profile the classifier
// was built from.
func (c *Classifier) BaselineHeavyFrac() float64 { return c.baseline }

// Classify maps one sample's profiled cost to its class.
func (c *Classifier) Classify(cost time.Duration) Class {
	if c.threshold > 0 && cost >= c.threshold {
		return heavy
	}
	return light
}
