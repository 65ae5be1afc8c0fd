package trainsim

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/policy"
	"repro/internal/prepsched"
)

// TestPrepschedConfigValidation: the prep-pool fields are independent. A
// Classify function alone is enough to classify, the trainer's own
// PrepMetrics receive the pool's counters without one, and the inert
// VarianceAware flag changes nothing without a Classify.
func TestPrepschedConfigValidation(t *testing.T) {
	const n = 8
	h := newHarness(t, n, 1)

	cfg := h.config()
	cfg.Classify = func(int) prepsched.Class { return prepsched.Heavy }
	if r, err := newTrainer(t, cfg).RunEpoch(1, nil, nil); err != nil || r.Heavy != n {
		t.Fatalf("Classify alone: heavy %d of %d, err %v", r.Heavy, n, err)
	}

	tr := newTrainer(t, h.config())
	if _, err := tr.RunEpoch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s := tr.PrepMetrics().Snapshot(); s.Light != n || s.Heavy != 0 {
		t.Fatalf("PrepMetrics without Classify: %+v, want %d light", s, n)
	}

	cfg = h.config()
	cfg.VarianceAware = true
	if r, err := newTrainer(t, cfg).RunEpoch(1, nil, nil); err != nil || r.Heavy != 0 || r.Samples != n {
		t.Fatalf("VarianceAware without Classify: %+v, err %v", r, err)
	}
}

// TestVarianceAwareMatchesFIFO: classification moves only completion timing.
// Per-sample fetches under a plan that alternates raw and offloaded samples,
// so heavy and light entries of both kinds share every worker's deque.
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

// TestVarianceAwareDeterministicRepeat runs the variance-aware epoch twice at
// the same seed: reports must match field for field (Duration aside), the
// scheduling nondeterminism confined entirely to timing.
func TestVarianceAwareDeterministicRepeat(t *testing.T) {
	const n = 32
	_, cfg := lookaheadCluster(t, n, 2, nil)
	cfg.Lookahead = 3
	cfg.Classify = func(sample int) prepsched.Class {
		if sample%4 == 0 {
			return prepsched.Heavy
		}
		return prepsched.Light
	}
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
		t.Fatalf("variance-aware repeat diverged:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestVarianceAwareDegradedPartition: degraded-mode accounting survives the
// pool — with one shard partitioned for the whole epoch, exactly the dead
// shard's samples fail and every healthy sample still trains, whichever
// worker ends up taking each failed entry.
func TestVarianceAwareDegradedPartition(t *testing.T) {
	const n = 60
	c, cfg := lookaheadCluster(t, n, 3, &chaos.Plan{Seed: 2})
	cfg.Lookahead = 6
	cfg.LookaheadHorizon = n
	cfg.Classify = func(sample int) prepsched.Class {
		if sample%3 == 0 {
			return prepsched.Heavy
		}
		return prepsched.Light
	}
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
