package trainsim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/profiler"
)

// decodedDims reads the stored image's dimensions from its SJPG or SJPR
// header without a full decode.
func decodedDims(raw []byte) (w, h int, err error) {
	if imaging.IsProgressive(raw) {
		w, h, _, _, _, err = imaging.ProgressiveInfo(raw)
	} else {
		w, h, err = imaging.DecodeDims(raw)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("trainsim: decode dims: %w", err)
	}
	return w, h, nil
}

// ProbeSamples is the size of the adaptive loop's between-epoch link probe:
// a few batches of samples, enough wire traffic to amortize the shaper's
// burst allowance without rereading the dataset.
func (t *Trainer) ProbeSamples() int { return min(4*t.cfg.BatchSize, t.n) }

// MeasureBandwidth estimates the storage link's current throughput in
// bytes/second by fetching n raw samples serially over the shared session
// and timing the wire bytes — the stage-1 I/O probe repurposed for the
// adaptive control plane's between-epoch re-profiling. Serial fetches keep
// the link the bottleneck, so under a shaped link the estimate converges on
// the shaper's rate.
func (t *Trainer) MeasureBandwidth(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("trainsim: bandwidth probe of %d samples", n)
	}
	clock := t.cfg.Clock
	var bytes int64
	start := clock.Now()
	for k := 0; k < n; k++ {
		res, err := t.client.Fetch(context.Background(), uint32(k%t.n), 0, 0)
		if err != nil {
			return 0, fmt.Errorf("trainsim: bandwidth probe fetch %d: %w", k, err)
		}
		if res.Err != nil {
			return 0, fmt.Errorf("trainsim: bandwidth probe fetch %d: %w", k, res.Err)
		}
		bytes += int64(res.WireBytes)
	}
	elapsed := clock.Now().Sub(start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("trainsim: bandwidth probe of %d bytes took no time", bytes)
	}
	return float64(bytes) / elapsed.Seconds(), nil
}

// Stage1Probes builds the profiler's three throughput probes on top of this
// trainer, matching the paper's measurement settings: (1) GPU-only steps on
// synthetic batches, (2) raw fetches with no processing, (3) preprocessing
// of data cached during the I/O probe.
func (t *Trainer) Stage1Probes() profiler.Probes {
	clock := t.cfg.Clock
	batch := t.cfg.BatchSize

	// The GPU probe times the trainer's own device, drained on both sides so
	// that a step an epoch left running is not counted.
	gpuProbe := func(batches int) (int, time.Duration, error) {
		t.device.Drain()
		start := clock.Now()
		for b := 0; b < batches; b++ {
			t.device.Submit(batch)
		}
		t.device.Drain()
		return batches * batch, clock.Now().Sub(start), nil
	}

	var cached [][]byte
	ioProbe := func(batches int) (int, time.Duration, error) {
		client := t.client
		total := batches * batch
		start := clock.Now()
		for k := 0; k < total; k++ {
			id := uint32(k % t.n)
			res, err := client.Fetch(context.Background(), id, 0, 0)
			if err != nil {
				return 0, 0, fmt.Errorf("io probe fetch %d: %w", id, err)
			}
			if res.Artifact.Kind != pipeline.KindRaw {
				return 0, 0, fmt.Errorf("io probe got %s artifact", res.Artifact.Kind)
			}
			if len(cached) < batch {
				cached = append(cached, res.Artifact.Raw)
			}
		}
		return total, clock.Now().Sub(start), nil
	}

	cpuProbe := func(batches int) (int, time.Duration, error) {
		if len(cached) == 0 {
			return 0, 0, fmt.Errorf("cpu probe needs the io probe to run first")
		}
		total := batches * batch
		start := clock.Now()
		for k := 0; k < total; k++ {
			raw := cached[k%len(cached)]
			seed := pipeline.Seed{Job: t.cfg.JobID, Epoch: 0, Sample: uint64(k)}
			art, err := t.cfg.Pipeline.Run(raw, seed)
			if err != nil {
				return 0, 0, fmt.Errorf("cpu probe sample %d: %w", k, err)
			}
			art.Release()
		}
		return total, clock.Now().Sub(start), nil
	}

	return profiler.Probes{GPU: gpuProbe, IO: ioProbe, CPU: cpuProbe}
}
