package soak

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// soakPipe is the pipeline Run serves.
var soakPipe = pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: 0.5})

// launchSet serves a soak-shaped image set of n samples from seed on one
// fault-free shard.
func launchSet(t *testing.T, seed uint64, n int) *cluster.Cluster {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{Name: "soak", N: n, Seed: seed, MinDim: 32, MaxDim: 96})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Launch(cluster.Config{Shards: 1, Store: store, Pipeline: soakPipe, CoresPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestIdentitySweepCountsMismatches: the sweep compares each sample at three
// cuts — raw, the packed crop and the tensor — so it compares 3·N pairs; two
// clusters serving the same set agree on every one, and two serving
// different sets disagree on every one, so a wrong artifact cannot pass it.
func TestIdentitySweepCountsMismatches(t *testing.T) {
	const n = 6
	cfg := Config{Seed: 3}.withDefaults()
	a, same, other := launchSet(t, 11, n), launchSet(t, 11, n), launchSet(t, 12, n)

	var rep Report
	if err := identitySweep(&rep, cfg, n, soakPipe, a, same); err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 3*n || rep.Mismatches != 0 {
		t.Fatalf("same set: compared %d, %d mismatched; want %d and 0", rep.Compared, rep.Mismatches, 3*n)
	}
	rep = Report{}
	if err := identitySweep(&rep, cfg, n, soakPipe, a, other); err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 3*n || rep.Mismatches != 3*n {
		t.Fatalf("different sets: compared %d, %d mismatched; want %d and %d", rep.Compared, rep.Mismatches, 3*n, 3*n)
	}

	// The middle cut is the one a packed image artifact crosses the wire at.
	fc, err := a.NewShardedClientWithPolicy(storage.ClientOptions{JobID: cfg.Seed}, retryPolicy, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	got, err := fc.Fetch(context.Background(), 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Artifact.Kind != pipeline.KindImage {
		t.Fatalf("cut 2 fetched a %v artifact, want an image", got.Artifact.Kind)
	}
}

func TestReportOk(t *testing.T) {
	epochs := []trainsim.EpochReport{{Epoch: 1}}
	for _, c := range []struct {
		name string
		rep  Report
		ok   bool
	}{
		{"clean", Report{Compared: 9, Epochs: epochs}, true},
		{"no epochs ran", Report{Compared: 9}, false},
		{"a mismatch", Report{Compared: 9, Mismatches: 1, Epochs: epochs}, false},
		{"exactly the expected loss", Report{Failed: 4, WantFailed: 4, Epochs: epochs}, true},
		{"a loss not expected", Report{Failed: 1, Epochs: epochs}, false},
		{"less loss than expected", Report{Failed: 3, WantFailed: 4, Epochs: epochs}, false},
		{"mix flip with no replan", Report{MixFlip: true, Epochs: epochs}, false},
		{"mix flip that replanned", Report{MixFlip: true, Replans: 1, Epochs: epochs}, true},
		{"mix flip that replanned, with a mismatch", Report{MixFlip: true, Replans: 1, Mismatches: 1, Epochs: epochs}, false},
	} {
		if got := c.rep.Ok(); got != c.ok {
			t.Errorf("%s: Ok() = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestPlanDigest: a seed's fault schedule has one digest, whatever the run,
// and different seeds have different ones.
func TestPlanDigest(t *testing.T) {
	for _, class := range []Class{ClassDelays, ClassCorrupt, ClassMixed} {
		a, b := Config{Seed: 5, Class: class}.Plan().Digest(16), Config{Seed: 5, Class: class}.Plan().Digest(16)
		if a != b {
			t.Errorf("%s: seed 5 digests %08x and %08x", class, a, b)
		}
		if c := (Config{Seed: 6, Class: class}).Plan().Digest(16); c == a {
			t.Errorf("%s: seeds 5 and 6 share digest %08x", class, a)
		}
	}
}

// TestRunSmall: one short fault-free soak reports its plan's digest, compares
// 3·N artifacts and meets every invariant; a second run of the seed agrees.
func TestRunSmall(t *testing.T) {
	cfg := Config{Seed: 9, Class: ClassNone, Samples: 8, Epochs: 1}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Ok() || a.Compared != 3*cfg.Samples || a.Digest != cfg.Plan().Digest(16) {
		t.Fatalf("report %+v: want Ok, %d compared, digest %08x", a, 3*cfg.Samples, cfg.Plan().Digest(16))
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Digest != a.Digest || b.Compared != a.Compared || b.Failed != a.Failed {
		t.Fatalf("same seed, different reports:\n a %+v\n b %+v", a, b)
	}
}
