package trainsim

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/profiler"
)

func TestBatchedFetchEpochMatchesPerSample(t *testing.T) {
	h := newHarness(t, 24, 2)

	perSample := newTrainer(t, h.config())

	batchedCfg := h.config()
	batchedCfg.FetchBatchSize = 8
	batched := newTrainer(t, batchedCfg)

	plan, err := policy.NewUniformPlan("resize", 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perSample.RunEpoch(5, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.RunEpoch(5, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples != b.Samples || a.Offloaded != b.Offloaded || a.Batches != b.Batches {
		t.Fatalf("accounting differs: %+v vs %+v", a, b)
	}
	// Batched framing is strictly cheaper.
	if b.BytesFetched >= a.BytesFetched {
		t.Fatalf("batched traffic %d not below per-sample %d", b.BytesFetched, a.BytesFetched)
	}
}

func TestBatchedProfilingEpoch(t *testing.T) {
	h := newHarness(t, 12, 1)
	cfg := h.config()
	cfg.FetchBatchSize = 5 // does not divide 12: exercises the tail chunk
	tr := newTrainer(t, cfg)
	collector, err := profiler.NewCollector(12)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.RunEpoch(1, nil, collector)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 12 {
		t.Fatalf("batched profiling epoch: %d samples", rep.Samples)
	}
	if _, err := collector.Trace("batched"); err != nil {
		t.Fatalf("batched profiling epoch: %v", err)
	}
}

func TestBatchSizeValidation(t *testing.T) {
	h := newHarness(t, 4, 1)
	cfg := h.config()
	cfg.FetchBatchSize = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted negative fetch batch size")
	}
	// Oversized values are clamped, not rejected.
	cfg.FetchBatchSize = 10000
	tr := newTrainer(t, cfg)
	if _, err := tr.RunEpoch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
}
