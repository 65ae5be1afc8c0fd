package trainsim

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/storage"
)

// TestLookaheadConfigValidation: the loader has one path, so every loader
// field is legal on its own. The zero Config resolves to depth 2×Workers and
// the default staging budget; each field set alone constructs and trains a
// full epoch; only a negative depth is rejected.
func TestLookaheadConfigValidation(t *testing.T) {
	const n = 12
	h := newHarness(t, n, 1)
	cfg := h.config()
	tr := newTrainer(t, cfg)
	if tr.cfg.Lookahead != 2*cfg.Workers {
		t.Fatalf("default depth %d, want 2×Workers = %d", tr.cfg.Lookahead, 2*cfg.Workers)
	}
	if tr.cfg.StagingBytes != defaultStagingBytes {
		t.Fatalf("staging default %d, want %d", tr.cfg.StagingBytes, defaultStagingBytes)
	}

	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"depth alone", func(c *Config) { c.Lookahead = 4 }},
		{"staging alone", func(c *Config) { c.StagingBytes = 1 << 10 }},
		{"unbounded staging", func(c *Config) { c.StagingBytes = -1 }},
	} {
		cfg := h.config()
		tc.mut(&cfg)
		r, err := newTrainer(t, cfg).RunEpoch(1, nil, nil)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if r.Samples != n {
			t.Errorf("%s: trained %d of %d samples", tc.name, r.Samples, n)
		}
	}

	cfg = h.config()
	cfg.Lookahead = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative depth accepted")
	}
}

// loaderGrid runs one epoch at each of {default depth, depth 1, deep depth}
// — what used to be the reactive and lookahead modes — and holds every
// epoch to the default depth's outcome: same Samples, Offloaded and Failed,
// wire bytes equal up to batch-frame headers (a shallow depth can cut a
// round trip short at the horizon), and the scheduler's counters. That the
// artifacts behind those counts are bit-identical to a fault-free reference
// is the chaos soak's check (internal/soak identitySweep).
func loaderGrid(t *testing.T, base Config, plan *policy.Plan, n int) {
	t.Helper()
	var ref EpochReport
	for _, depth := range []int{0, 1, 16} {
		cfg := base
		cfg.Lookahead = depth
		tr := newTrainer(t, cfg)
		r, err := tr.RunEpoch(1, plan, nil)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if depth == 0 {
			ref = r
			if r.Samples != n || r.Failed != 0 {
				t.Fatalf("reference epoch trained %d of %d samples, %d failed", r.Samples, n, r.Failed)
			}
		}
		if r.Samples != ref.Samples || r.Offloaded != ref.Offloaded || r.Failed != ref.Failed {
			t.Errorf("depth %d: samples %d offloaded %d failed %d, want %d %d %d",
				depth, r.Samples, r.Offloaded, r.Failed, ref.Samples, ref.Offloaded, ref.Failed)
		}
		if d := r.BytesFetched - ref.BytesFetched; d > int64(n)*64 || d < -int64(n)*64 {
			t.Errorf("depth %d: fetched %d bytes, reference %d — more than frame headers apart",
				depth, r.BytesFetched, ref.BytesFetched)
		}
		pf := tr.PrefetchMetrics().Snapshot()
		if pf.Completed != int64(n) || pf.Offloaded != int64(ref.Offloaded) {
			t.Errorf("depth %d: prefetch counters %+v for %d samples (%d offloaded)",
				depth, pf, n, ref.Offloaded)
		}
	}
}

// TestLookaheadEpochSingleServer: over a plain (non-sharded) client the
// scheduler falls back to one link; every depth trains the same raw epoch.
func TestLookaheadEpochSingleServer(t *testing.T) {
	const n = 32
	h := newHarness(t, n, 4)
	cfg := h.config()
	cfg.FetchBatchSize = 4
	loaderGrid(t, cfg, nil, n)
}

func lookaheadCluster(t testing.TB, n, shards int, plan *chaos.Plan) (*cluster.Cluster, Config) {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "lookahead", N: n, Seed: 13, MinDim: 48, MaxDim: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	pipe := pipeline.Standard(pipeline.StandardOptions{CropSize: 32, FlipP: -1})
	c, err := cluster.Launch(cluster.Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      pipe,
		CoresPerShard: 2,
		Chaos:         plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cfg := Config{
		DialClient: func() (storage.Fetcher, error) {
			return c.NewShardedClient(storage.ClientOptions{JobID: 7}, 2, 0, true)
		},
		Workers:        3,
		Pipeline:       pipe,
		GPU:            gpu.AlexNet,
		BatchSize:      8,
		JobID:          7,
		Shuffle:        true,
		FetchBatchSize: 4,
		DegradedMode:   true,
	}
	return c, cfg
}

// TestLookaheadShardedMatchesReactive: per-shard issue queues over a 3-shard
// tier with an offloading plan deliver the same training outcome at every
// depth.
func TestLookaheadShardedMatchesReactive(t *testing.T) {
	const n = 48
	_, cfg := lookaheadCluster(t, n, 3, nil)
	plan, err := policy.NewUniformPlan("half", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	loaderGrid(t, cfg, plan, n)
}

// TestLookaheadDegradedPartition: with one shard partitioned for the whole
// epoch and a deep lookahead in flight, exactly the dead shard's samples
// fail (EpochReport.Failed) and every healthy sample still trains.
func TestLookaheadDegradedPartition(t *testing.T) {
	const n = 60
	c, cfg := lookaheadCluster(t, n, 3, &chaos.Plan{Seed: 2})
	cfg.Lookahead = 6
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
	snap := tr.PrefetchMetrics().Snapshot()
	if snap.Failed != int64(owned) {
		t.Fatalf("prefetch failed counter %d, want %d", snap.Failed, owned)
	}
	// Fail-fast: the epoch must not serialize a retry storm per dead sample.
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("degraded epoch took %v — fail-fast is not engaging", d)
	}
}
