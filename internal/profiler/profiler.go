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
	"repro/internal/policy"
)

// DefaultProbeBatches is the number of batches stage 1 measures per
// setting.
const DefaultProbeBatches = 50

// Bottleneck classifies the workload's limiting resource.
type Bottleneck int

// Bottleneck kinds.
const (
	IOBound Bottleneck = iota
	CPUBound
	GPUBound
)

// String names the bottleneck.
func (b Bottleneck) String() string {
	switch b {
	case IOBound:
		return "io-bound"
	case CPUBound:
		return "cpu-bound"
	case GPUBound:
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
	b := IOBound
	if r.CPUThroughput < min {
		min = r.CPUThroughput
		b = CPUBound
	}
	if r.GPUThroughput < min {
		b = GPUBound
	}
	return b
}

// IOBound reports whether stage 1 gates offloading on.
func (r Stage1Result) IOBound() bool { return r.Bottleneck() == IOBound }

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
		batches = DefaultProbeBatches
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

// Stage1FromTrace evaluates the three probes analytically from a profiled
// trace and environment — the model-tier equivalent of the live probes (the
// same quantities a 50-batch measurement converges to).
func Stage1FromTrace(tr *dataset.Trace, env policy.Env) (Stage1Result, error) {
	if err := env.Validate(); err != nil {
		return Stage1Result{}, err
	}
	if tr.N() == 0 {
		return Stage1Result{}, errors.New("profiler: empty trace")
	}
	n := float64(tr.N())
	meanBytes := float64(tr.TotalRawBytes()) / n
	meanCPU := tr.TotalPreprocessCPU().Seconds() / n
	return Stage1Result{
		GPUThroughput: env.GPU.Throughput * float64(env.GPUs()),
		IOThroughput:  env.Bandwidth / meanBytes,
		CPUThroughput: float64(env.ComputeCores) / meanCPU,
	}, nil
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
// the planner prices what a cut puts on the link.
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

// Progress returns how many distinct samples have been observed.
func (c *Collector) Progress() (observed, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count, len(c.records)
}

// Complete reports whether every sample has been observed.
func (c *Collector) Complete() bool {
	observed, total := c.Progress()
	return observed == total
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
