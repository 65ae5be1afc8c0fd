// Package profiler implements SOPHON's two-stage profiler. Stage 1 probes
// GPU, I/O, and CPU throughput over a handful of batches (the paper uses 50)
// to decide whether the workload is I/O-bound at all — offloading only
// activates when it is. Stage 2 collects per-sample metrics (artifact size
// after every op, per-op CPU time) on the fly during the first training
// epoch, so profiling adds no extra pass over the dataset.
package profiler

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// defaultProbeBatches is the number of batches stage 1 measures per
// setting.
const defaultProbeBatches = 50

// Bottleneck classifies the workload's limiting resource.
type Bottleneck int

// Bottleneck kinds.
const (
	ioBound Bottleneck = iota
	cpuBound
	gpuBound
)

// String names the bottleneck.
func (b Bottleneck) String() string {
	switch b {
	case ioBound:
		return "io-bound"
	case cpuBound:
		return "cpu-bound"
	case gpuBound:
		return "gpu-bound"
	default:
		return fmt.Sprintf("bottleneck(%d)", int(b))
	}
}

// Stage1Result holds the three throughput probes in samples/second.
type Stage1Result struct {
	GPUThroughput float64
	IOThroughput  float64
	CPUThroughput float64
}

// Bottleneck returns the resource with the lowest probed throughput (ties
// resolve in order I/O, CPU, GPU — matching the paper's bias toward
// treating the link as the constraint).
func (r Stage1Result) Bottleneck() Bottleneck {
	min := r.IOThroughput
	b := ioBound
	if r.CPUThroughput < min {
		min = r.CPUThroughput
		b = cpuBound
	}
	if r.GPUThroughput < min {
		b = gpuBound
	}
	return b
}

// IOBound reports whether stage 1 gates offloading on.
func (r Stage1Result) IOBound() bool { return r.Bottleneck() == ioBound }

// Probe measures one setting: it processes the requested number of batches
// and returns how many samples were handled and how long it took.
type Probe func(batches int) (samples int, elapsed time.Duration, err error)

// Probes bundles the three stage-1 measurements: (1) GPU-only training on
// synthetic data, (2) raw data retrieval with no processing, (3) CPU
// preprocessing over cached data.
type Probes struct {
	GPU Probe
	IO  Probe
	CPU Probe
}

// RunStage1 executes the three probes.
func RunStage1(p Probes, batches int) (Stage1Result, error) {
	if batches <= 0 {
		batches = defaultProbeBatches
	}
	if p.GPU == nil || p.IO == nil || p.CPU == nil {
		return Stage1Result{}, errors.New("profiler: all three probes are required")
	}
	var out Stage1Result
	for _, probe := range []struct {
		name string
		f    Probe
		dst  *float64
	}{
		{"gpu", p.GPU, &out.GPUThroughput},
		{"io", p.IO, &out.IOThroughput},
		{"cpu", p.CPU, &out.CPUThroughput},
	} {
		n, elapsed, err := probe.f(batches)
		if err != nil {
			return Stage1Result{}, fmt.Errorf("profiler: %s probe: %w", probe.name, err)
		}
		if n <= 0 || elapsed <= 0 {
			return Stage1Result{}, fmt.Errorf("profiler: %s probe returned %d samples in %v", probe.name, n, elapsed)
		}
		*probe.dst = float64(n) / elapsed.Seconds()
	}
	return out, nil
}

// Collector accumulates stage-2 per-sample observations during epoch 1.
// It is safe for concurrent use by loader workers.
type Collector struct {
	mu      sync.Mutex
	records []dataset.Record
	seen    []bool
	count   int
}

// NewCollector sizes the collector for a dataset of n samples.
func NewCollector(n int) (*Collector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("profiler: collector needs n > 0, got %d", n)
	}
	return &Collector{records: make([]dataset.Record, n), seen: make([]bool, n)}, nil
}

// Observe records one sample's stage trace. Re-observations overwrite (the
// last epoch-1 measurement wins). Width/height are the decoded dimensions.
// The record's StageSizes are the trace's shipped bytes, not the size law:
// the planner prices what a cut puts on the link. Stage 0 is the exception:
// it is the stored object, of which a live raw fetch (storage.Rows) ships
// only the crop's units, ≈ 0.49 of it on the benchmark's cpu_local store,
// so raw is priced high (ROADMAP item 15).
func (c *Collector) Observe(id uint32, st pipeline.StageTrace, width, height int) error {
	if len(st.Shipped) != dataset.StageCount || len(st.OpTimes) != dataset.OpCount {
		return fmt.Errorf("profiler: stage trace has %d shipped sizes / %d times", len(st.Shipped), len(st.OpTimes))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(id) >= len(c.records) {
		return fmt.Errorf("profiler: sample %d out of range [0, %d)", id, len(c.records))
	}
	rec := dataset.Record{
		ID:      id,
		RawSize: int64(st.Shipped[0] - 1), // strip the artifact kind byte
		Width:   width,
		Height:  height,
		Sliced:  int64(st.Sliced),
	}
	for i, s := range st.Shipped {
		rec.StageSizes[i] = int64(s)
	}
	for i, d := range st.OpTimes {
		rec.OpTimes[i] = d
	}
	if !c.seen[id] {
		c.seen[id] = true
		c.count++
	}
	c.records[id] = rec
	return nil
}

// Trace materializes the collected records as a dataset trace. It fails if
// any sample was never observed.
func (c *Collector) Trace(name string) (*dataset.Trace, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count != len(c.records) {
		return nil, fmt.Errorf("profiler: only %d of %d samples observed", c.count, len(c.records))
	}
	records := make([]dataset.Record, len(c.records))
	copy(records, c.records)
	return &dataset.Trace{Name: name, Records: records}, nil
}
