package sophon

// Live adaptive control-plane smoke: a bandwidth-shaped cluster is profiled
// and trained under the controller's versioned snapshots, the link is
// reshaped 500→250 Mbps between epochs, and the controller must replan at
// the next epoch boundary — with the new plan version visible end to end:
// stamped on the wire, ratcheted by the server, and recorded in the epoch
// report.

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
		BandwidthMbps: 500,
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

	// Epoch 1: the profiling epoch runs bare (no snapshot), so it reports
	// plan version 0 and stamps nothing on the wire.
	trace, _, first, err := trainer.Profile(2)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanVersion != 0 {
		t.Fatalf("profiling epoch reported plan version %d, want 0", first.PlanVersion)
	}

	env := Env{
		Bandwidth:       Mbps(500),
		ComputeCores:    4,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             AlexNet,
	}
	// Hysteresis 1 so the 50% bandwidth drop replans at the very next
	// boundary; the 0.35 threshold leaves headroom for serial-probe
	// measurement noise at the full rate (loopback latency, burst credit).
	ctrl, err := NewController(ControllerConfig{
		Trace: trace,
		Env:   env,
		Drift: DriftConfig{Alpha: 1, RelThreshold: 0.35, Hysteresis: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The probe rereads the dataset three times over: enough wire traffic to
	// amortize the shaper's 256 KB burst allowance.
	const probeSamples = 96
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

	// Epoch 2 under v1 at the full rate: version threads through, no drift.
	rep, err := trainer.TrainEpochSnapshot(2, ctrl.Current())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanVersion != 1 {
		t.Fatalf("epoch 2 plan version = %d, want 1", rep.PlanVersion)
	}
	if got := cluster.ServerPlanVersion(); got != 1 {
		t.Fatalf("server observed plan version %d after epoch 2, want 1", got)
	}
	observe(2)
	if h := ctrl.History(); len(h) != 1 {
		t.Fatalf("replan before any reshape: %v", h)
	}

	// Reshape the live link to half rate, then run the degraded epoch still
	// under v1 — the boundary observation after it must trigger the replan.
	if err := cluster.SetBandwidth(250); err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.TrainEpochSnapshot(3, ctrl.Current()); err != nil {
		t.Fatal(err)
	}
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
	// one. Loose bounds: the serial probe over real TCP is noisy.
	if ev.Bandwidth < Mbps(150) || ev.Bandwidth > Mbps(375) {
		t.Fatalf("replanned bandwidth %.1f MB/s not near the 250 Mbps reshape", ev.Bandwidth/1e6)
	}

	// Epoch 4 under v2: the bumped version threads through to the server.
	rep, err = trainer.TrainEpochSnapshot(4, ctrl.Current())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanVersion != 2 {
		t.Fatalf("epoch 4 plan version = %d, want 2", rep.PlanVersion)
	}
	if got := cluster.ServerPlanVersion(); got != 2 {
		t.Fatalf("server observed plan version %d after epoch 4, want 2", got)
	}
	if got := cluster.serverCounters().PlanRegressions.Load(); got != 0 {
		t.Fatalf("server counted %d plan regressions, want 0", got)
	}
}

// TestAutoTrainAdaptiveProbeFollowsBatch: the between-epoch link probe is
// four of the trainer's batches, the size cmd/sophon-train's adaptive loop
// uses — 32 samples at BatchSize 8, not the 128 a default-batch trainer reads.
func TestAutoTrainAdaptiveProbeFollowsBatch(t *testing.T) {
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
	env := Env{Bandwidth: Mbps(500), ComputeCores: 2, StorageCores: 1, StorageSlowdown: 1, GPU: AlexNet}
	if _, err := trainer.AutoTrainAdaptive(2, env, probeBatches, DriftConfig{}); err != nil {
		t.Fatal(err)
	}
	// Stage 1's I/O probe, the profiling epoch, epoch 2, then one link probe.
	want := uint64(probeBatches*batch + 2*n + 4*batch)
	if got := cluster.serverCounters().SamplesServed.Load(); got != want {
		t.Fatalf("server served %d samples, want %d: a link probe of %d", got, want, 4*batch)
	}
}
