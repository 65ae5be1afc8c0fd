package trainsim

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// ProbeSamples is the size of the adaptive loop's between-epoch link probe:
// a few batches of samples, enough wire traffic to amortize the shaper's
// burst allowance without rereading the dataset.
func (t *Trainer) ProbeSamples() int { return min(4*t.cfg.BatchSize, t.tier.Samples) }

// probeDepth is how many fetch batches the bandwidth probe keeps in flight
// over the shared session: with two, one batch's fixed cost — its request,
// the server's slice, its framing — overlaps the other's transfer, so that
// the link, not the round trip, sets the pace.
const probeDepth = 2

// MeasureBandwidth estimates the storage link's current throughput in
// bytes/second by fetching n raw samples, probeDepth FetchBatch round trips of
// FetchBatchSize at a time over the shared session, and timing the wire
// bytes — the stage-1 I/O probe's fetches, repurposed for the adaptive
// control plane's between-epoch re-profiling. It counts each fetch's fixed
// cost as link time, so it reads a shaped link's rate only behind a burst
// that banks the idle time, netsim.LinkBurst: behind a 32 KiB burst it read
// 36–45 MB/s of a 62.5 MB/s link (ROADMAP item 19).
func (t *Trainer) MeasureBandwidth(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("trainsim: bandwidth probe of %d samples", n)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex // guards next, bytes and first
		next  int
		bytes int64
		first error
		batch = t.cfg.FetchBatchSize
		clock = t.cfg.Clock
		start = clock.Now()
	)
	for range probeDepth {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples, splits := make([]uint32, batch), make([]int, batch)
			for {
				mu.Lock()
				lo := next
				next += batch
				stop := lo >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				k := min(batch, n-lo)
				for i := range k {
					samples[i] = uint32((lo + i) % t.tier.Samples)
				}
				res, err := t.client.FetchBatch(context.Background(), samples[:k], splits[:k], 0)
				if err != nil {
					err = fmt.Errorf("fetch %d: %w", samples[0], err)
				}
				var got int64
				for _, r := range res {
					if err == nil && r.Err == nil && r.Artifact.Kind != pipeline.KindRaw {
						err = fmt.Errorf("fetch %d got %s artifact", r.Sample, r.Artifact.Kind)
					}
					err = cmp.Or(err, r.Err)
					got += int64(r.WireBytes)
				}
				mu.Lock()
				bytes, first = bytes+got, cmp.Or(first, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := clock.Now().Sub(start)
	if first != nil {
		return 0, fmt.Errorf("trainsim: bandwidth probe %w", first)
	}
	if elapsed <= 0 {
		return 0, fmt.Errorf("trainsim: bandwidth probe of %d bytes took no time", bytes)
	}
	return float64(bytes) / elapsed.Seconds(), nil
}

// Profile runs the paper's two-stage profiler (Figure 2): stage 1 measures
// GPU, I/O and CPU throughput over probeBatches batches; stage 2 is epoch 1,
// run without offloading while a collector records every sample. It returns
// the measured trace, the stage-1 verdict and the profiling epoch's report.
func (t *Trainer) Profile(probeBatches int) (*dataset.Trace, profiler.Stage1Result, EpochReport, error) {
	stage1, err := profiler.RunStage1(t.stage1Probes(), probeBatches)
	if err != nil {
		return nil, profiler.Stage1Result{}, EpochReport{}, err
	}
	collector, err := profiler.NewCollector(t.tier.Samples)
	if err != nil {
		return nil, profiler.Stage1Result{}, EpochReport{}, err
	}
	report, err := t.RunEpoch(1, nil, collector)
	if err != nil {
		return nil, profiler.Stage1Result{}, EpochReport{}, err
	}
	tr, err := collector.Trace("measured")
	if err != nil {
		return nil, profiler.Stage1Result{}, EpochReport{}, err
	}
	return tr, stage1, report, nil
}

// stage1Probes builds the profiler's three throughput probes on top of this
// trainer, matching the paper's measurement settings: (1) GPU-only steps on
// synthetic batches, (2) raw fetches with no processing, (3) preprocessing
// of data cached during the I/O probe.
func (t *Trainer) stage1Probes() profiler.Probes {
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

	// The I/O probe fetches serially: the profiler's stage-1 verdict, which
	// sets it beside the GPU and CPU probes, is calibrated to that.
	var cached [][]byte
	ioProbe := func(batches int) (int, time.Duration, error) {
		total := batches * batch
		start := clock.Now()
		for k := 0; k < total; k++ {
			res, err := storage.FetchOne(context.Background(), t.client, uint32(k%t.tier.Samples), 0, 0)
			if err == nil && res.Artifact.Kind != pipeline.KindRaw {
				err = fmt.Errorf("got %s artifact", res.Artifact.Kind)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("io probe fetch %d: %w", k%t.tier.Samples, err)
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
