package trainsim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/storage"
)

// failingClient wraps a real session but fails every sample a predicate
// selects — a dead shard seen through a degraded fan-out client, without a
// cluster in the loop.
type failingClient struct {
	storage.Fetcher
	fails func(sample uint32) bool
}

var errInjected = errors.New("injected shard failure")

func (f *failingClient) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return storage.FetchOne(ctx, f, sample, split, epoch)
}

func (f *failingClient) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	out := make([]storage.FetchResult, len(samples))
	healthyIdx := make([]int, 0, len(samples))
	healthySamples := make([]uint32, 0, len(samples))
	healthySplits := make([]int, 0, len(samples))
	for i, s := range samples {
		if f.fails(s) {
			out[i] = storage.FetchResult{Sample: s, Split: splits[i], Err: errInjected}
			continue
		}
		healthyIdx = append(healthyIdx, i)
		healthySamples = append(healthySamples, s)
		healthySplits = append(healthySplits, splits[i])
	}
	if len(healthySamples) > 0 {
		res, err := f.Fetcher.FetchBatch(ctx, healthySamples, healthySplits, epoch)
		if err != nil {
			return nil, err
		}
		for j, i := range healthyIdx {
			out[i] = res[j]
		}
	}
	return out, nil
}

// TestDegradedModeSkipsFailedSamples: per-item failures become skipped
// samples counted in EpochReport.Failed, not an aborted epoch.
func TestDegradedModeSkipsFailedSamples(t *testing.T) {
	const n = 40
	h := newHarness(t, n, 0)
	fails := func(s uint32) bool { return s%5 == 0 }
	wantFailed := 0
	for s := uint32(0); s < n; s++ {
		if fails(s) {
			wantFailed++
		}
	}

	for _, batched := range []int{0, 8} {
		cfg := h.config()
		inner := cfg.DialClient
		cfg.DialClient = func() (storage.Fetcher, error) {
			c, err := inner()
			if err != nil {
				return nil, err
			}
			return &failingClient{Fetcher: c, fails: fails}, nil
		}
		cfg.DegradedMode = true
		cfg.FetchBatchSize = batched
		tr := newTrainer(t, cfg)
		rep, err := tr.RunEpoch(1, nil, nil)
		tr.Close()
		if err != nil {
			t.Fatalf("batch=%d: degraded epoch: %v", batched, err)
		}
		if rep.Failed != wantFailed {
			t.Errorf("batch=%d: Failed = %d, want %d", batched, rep.Failed, wantFailed)
		}
		if rep.Samples != n-wantFailed {
			t.Errorf("batch=%d: Samples = %d, want %d", batched, rep.Samples, n-wantFailed)
		}
	}
}

// TestDegradedModeAllFailedErrors: an epoch that loses every sample is not
// a success — it must still error out.
func TestDegradedModeAllFailedErrors(t *testing.T) {
	h := newHarness(t, 16, 0)
	cfg := h.config()
	inner := cfg.DialClient
	cfg.DialClient = func() (storage.Fetcher, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		return &failingClient{Fetcher: c, fails: func(uint32) bool { return true }}, nil
	}
	cfg.DegradedMode = true
	tr := newTrainer(t, cfg)
	if _, err := tr.RunEpoch(1, nil, nil); err == nil {
		t.Fatal("epoch with every sample failed reported success")
	}
}

// TestStrictModeAbortsOnFailure: without DegradedMode the first failed
// sample aborts the epoch mid-stream, with fetched entries still staged; the
// teardown must zero the staged-bytes gauge (newTrainer's cleanup checks it).
func TestStrictModeAbortsOnFailure(t *testing.T) {
	h := newHarness(t, 48, 0)
	cfg := h.config()
	inner := cfg.DialClient
	cfg.DialClient = func() (storage.Fetcher, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		return &failingClient{Fetcher: c, fails: func(s uint32) bool { return s == 7 }}, nil
	}
	tr := newTrainer(t, cfg)
	if _, err := tr.RunEpoch(1, nil, nil); err == nil {
		t.Fatal("strict epoch completed despite a failed sample")
	}
	if tr.PrefetchMetrics().Snapshot().StagedPeakBytes == 0 {
		t.Fatal("nothing was ever staged; the abort tore down an idle loader")
	}
}
