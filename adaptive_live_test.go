package sophon

// Live adaptive control-plane smoke: a bandwidth-shaped cluster is profiled
// and trained under the controller's versioned snapshots, the link is
// reshaped 100→50 Mbps between epochs, and the controller must replan at
// the next epoch boundary, each epoch running the plan of the controller's
// current snapshot. Every bandwidth it asserts on is a ratio of two probes
// of the same link, never a probe against the configured rate.

import (
	"strings"
	"testing"
)

func TestAdaptiveLiveReshape(t *testing.T) {
	if testing.Short() {
		t.Skip("live adaptive smoke")
	}
	cluster, err := StartCluster(ClusterConfig{
		DatasetName:   "adaptive-live",
		NumSamples:    32,
		Seed:          7,
		MinDim:        256,
		MaxDim:        448,
		CropSize:      64,
		StorageCores:  2,
		BandwidthMbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// No local cache: the bandwidth probe must see the link, not a cache.
	trainer, err := cluster.NewTrainer(TrainerOptions{
		Workers:        4,
		BatchSize:      8,
		JobID:          5,
		FetchBatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()

	// Epoch 1 is the profiling epoch: every sample raw, no snapshot yet.
	trace, _, _, err := trainer.Profile(2)
	if err != nil {
		t.Fatal(err)
	}

	// The probe rereads the dataset twice over: enough wire traffic to
	// amortize the shaper's 256 KiB burst allowance.
	const probeSamples = 64
	// The plan assumes what the probe reads at the full rate, not the
	// configured 100 Mbps: every later probe is held to this one, so what
	// a serial probe loses to the host (race overhead, pipe hand-offs,
	// server CPU) cancels out and only the reshape reads as drift. The link
	// is slow enough that a fetch's fixed cost is a small share of its
	// transfer, so half the rate reads as about half the bandwidth.
	base, err := trainer.MeasureBandwidth(probeSamples)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{
		Bandwidth:       base,
		ComputeCores:    4,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             AlexNet,
	}
	// Hysteresis 1 so the 50% bandwidth drop replans at the very next
	// boundary; a probe at the full rate reads within 0.3 of the first, one
	// at half the rate below 0.7 of it as long as a fetch's fixed cost is
	// under two thirds of its transfer time.
	ctrl, err := NewController(ControllerConfig{
		Trace: trace,
		Env:   env,
		Drift: DriftConfig{Alpha: 1, RelThreshold: 0.3, Hysteresis: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	observe := func(epoch uint64) {
		t.Helper()
		bw, err := trainer.MeasureBandwidth(probeSamples)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ctrl.ObserveEpoch(EpochSample{Epoch: epoch, Bandwidth: bw}); err != nil {
			t.Fatal(err)
		}
		t.Logf("epoch %d: measured %.1f MB/s", epoch, bw/1e6)
	}
	// train runs one epoch under the controller's current snapshot, which
	// must be version want, and checks the epoch offloaded what its plan
	// offloads.
	train := func(epoch uint64, want int) {
		t.Helper()
		snap := ctrl.Current()
		if int(snap.Version) != want {
			t.Fatalf("epoch %d runs plan v%d, want v%d", epoch, snap.Version, want)
		}
		rep, err := trainer.RunEpoch(epoch, snap.Plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Samples != 32 || rep.Offloaded != snap.Plan.OffloadedCount() {
			t.Fatalf("epoch %d offloaded %d of %d samples, plan v%d offloads %d of 32",
				epoch, rep.Offloaded, rep.Samples, snap.Version, snap.Plan.OffloadedCount())
		}
	}

	// Epoch 2 under v1 at the full rate: no drift.
	train(2, 1)
	observe(2)
	if h := ctrl.History(); len(h) != 1 {
		t.Fatalf("replan before any reshape: %v", h)
	}

	// Reshape the live link to half rate, then run the degraded epoch still
	// under v1 — the boundary observation after it must trigger the replan.
	if err := cluster.SetBandwidth(50); err != nil {
		t.Fatal(err)
	}
	train(3, 1)
	observe(3)

	hist := ctrl.History()
	if len(hist) != 2 {
		t.Fatalf("want exactly one replan after the reshape, history %v", hist)
	}
	ev := hist[1]
	if ev.Version != 2 || ev.Epoch != 4 {
		t.Fatalf("replan landed as v%d@epoch%d, want v2@epoch4", ev.Version, ev.Epoch)
	}
	if !strings.Contains(ev.Reason, "bandwidth-drift") {
		t.Fatalf("replan reason %q does not name bandwidth drift", ev.Reason)
	}
	// The new plan must assume the measured degraded link, not the profiled
	// one: about half the full-rate probe.
	if r := ev.Bandwidth / base; r < 0.35 || r > 0.7 {
		t.Fatalf("replanned bandwidth %.1f MB/s is %.2f of the full-rate probe's %.1f, not near half", ev.Bandwidth/1e6, r, base/1e6)
	}

	// Epoch 4 runs the replanned v2.
	train(4, 2)
}

// TestProbeFollowsBatch: the adaptive loop's between-epoch link probe is
// four of the trainer's batches, the size cmd/sophon-train's adaptive loop
// uses — 32 samples at BatchSize 8, not the 128 a default-batch trainer reads.
func TestProbeFollowsBatch(t *testing.T) {
	const n, batch, probeBatches = 64, 8, 1
	cluster, err := StartCluster(ClusterConfig{NumSamples: n, Seed: 3, MinDim: 32, MaxDim: 64, CropSize: 24, StorageCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	trainer, err := cluster.NewTrainer(TrainerOptions{Workers: 2, BatchSize: batch, JobID: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	if _, _, _, err := trainer.Profile(probeBatches); err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.MeasureBandwidth(trainer.ProbeSamples()); err != nil {
		t.Fatal(err)
	}
	// Stage 1's I/O probe, the profiling epoch, then one link probe.
	want := uint64(probeBatches*batch + n + 4*batch)
	if got := cluster.serverCounters().SamplesServed.Load(); got != want {
		t.Fatalf("server served %d samples, want %d: a link probe of %d", got, want, 4*batch)
	}
}
