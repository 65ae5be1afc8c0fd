package trainsim

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/policy"
	"repro/internal/prepsched"
)

// TestLoaderIgnoresClassify: the loader never asks for a sample's class, so
// a Classify hook, with or without the inert VarianceAware flag, changes
// nothing, and PrepMetrics stays zero.
func TestLoaderIgnoresClassify(t *testing.T) {
	const n = 8
	h := newHarness(t, n, 1)
	cfg := h.config()
	cfg.VarianceAware = true
	cfg.Classify = func(sample int) prepsched.Class {
		t.Errorf("Classify(%d) called", sample)
		return 0
	}
	tr := newTrainer(t, cfg)
	r, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != n {
		t.Fatalf("trained %d of %d samples", r.Samples, n)
	}
	if s := tr.PrepMetrics().Snapshot(); s != (prepsched.MetricsSnapshot{}) {
		t.Fatalf("PrepMetrics %+v, want zero", s)
	}
}

// TestVarianceAwareMatchesFIFO: samples of unequal cost — raw ones decoded
// locally beside offloaded ones that arrive as tensors — finish in whatever
// order the workers free up, and that moves only timing. Per-sample fetches
// under a plan that alternates raw and offloaded samples train the same
// epoch at every depth.
func TestVarianceAwareMatchesFIFO(t *testing.T) {
	const n = 48
	_, cfg := lookaheadCluster(t, n, 3, nil)
	cfg.FetchBatchSize = 0
	plan := &policy.Plan{Name: "alternate", Splits: make([]uint8, n)}
	for i := 1; i < n; i += 2 {
		plan.Splits[i] = 2
	}
	loaderGrid(t, cfg, plan, n)
}

// TestVarianceAwareDeterministicRepeat runs the same epoch twice at the same
// seed: reports must match field for field (timing aside), whichever worker
// took which entry.
func TestVarianceAwareDeterministicRepeat(t *testing.T) {
	const n = 32
	_, cfg := lookaheadCluster(t, n, 2, nil)
	cfg.Lookahead = 3
	run := func() EpochReport {
		tr := newTrainer(t, cfg)
		r, err := tr.RunEpoch(2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	a.Duration, b.Duration = 0, 0
	a.GPUBusy, b.GPUBusy = 0, 0
	a.GPUUtilization, b.GPUUtilization = 0, 0
	a.LocalCPU, b.LocalCPU = 0, 0
	if a != b {
		t.Fatalf("repeat diverged:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestVarianceAwareDegradedPartition: degraded-mode accounting holds with
// more workers than compute cores racing for the scheduler's entries — with
// one shard partitioned for the whole epoch, exactly the dead shard's
// samples fail and every healthy sample still trains, whichever worker takes
// each failed entry.
func TestVarianceAwareDegradedPartition(t *testing.T) {
	const n = 60
	c, cfg := lookaheadCluster(t, n, 3, &chaos.Plan{Seed: 2})
	cfg.Workers, cfg.ComputeCores = 8, 2
	cfg.Lookahead = 6
	cfg.LookaheadHorizon = n
	owned := len(c.ShardMap().Owned(n, 1))
	if owned == 0 {
		t.Fatal("shard 1 owns nothing; test is vacuous")
	}
	tr := newTrainer(t, cfg) // dial while healthy, then sever
	if err := c.PartitionShard(1, true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != owned {
		t.Fatalf("Failed = %d, want exactly the dead shard's %d samples", r.Failed, owned)
	}
	if r.Samples != n-owned {
		t.Fatalf("Samples = %d, want %d healthy", r.Samples, n-owned)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("degraded epoch took %v — fail-fast is not engaging", d)
	}
}
