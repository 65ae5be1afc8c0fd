package sophon

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/storage"
)

func TestModelTierEndToEnd(t *testing.T) {
	tr, err := GenerateTrace(OpenImagesProfile(2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{
		Bandwidth:       Mbps(500),
		ComputeCores:    48,
		StorageCores:    48,
		StorageSlowdown: 1,
		GPU:             AlexNet,
	}
	d, err := Decide(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Activated {
		t.Fatal("paper setup did not activate offloading")
	}
	res, err := engine.Run(engine.Config{Trace: tr, Plan: d.Plan, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	noOff, _, err := SimulatePolicy(policy.NoOff{}, tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochTime >= noOff.EpochTime {
		t.Fatalf("SOPHON epoch %v not faster than No-Off %v", res.EpochTime, noOff.EpochTime)
	}
	if len(AllPolicies()) != 5 {
		t.Fatalf("AllPolicies = %d", len(AllPolicies()))
	}
}

func TestLiveClusterEndToEnd(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		DatasetName:  "api-test",
		NumSamples:   16,
		Seed:         5,
		MinDim:       48,
		MaxDim:       140,
		CropSize:     64,
		StorageCores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	trainer, err := cluster.NewTrainer(TrainerOptions{
		Workers:   3,
		BatchSize: 8,
		JobID:     9,
		Shuffle:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()

	// Two-stage profiling.
	trace, stage1, report, err := trainer.Profile(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Samples != 16 || trace.N() != 16 {
		t.Fatalf("profiling epoch: %d samples, trace %d", report.Samples, trace.N())
	}
	if stage1.IOThroughput <= 0 {
		t.Fatalf("stage1: %+v", stage1)
	}

	// Plan on an artificially tight link so offloading activates, then
	// train a real epoch under the plan.
	env := Env{
		Bandwidth:       Mbps(2),
		ComputeCores:    4,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             AlexNet,
	}
	d, err := Decide(trace, env)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.RunEpoch(2, d.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 16 {
		t.Fatalf("trained %d samples", rep.Samples)
	}
	if d.Plan.OffloadedCount() > 0 {
		if rep.Offloaded != d.Plan.OffloadedCount() {
			t.Fatalf("offloaded %d, plan says %d", rep.Offloaded, d.Plan.OffloadedCount())
		}
		if cluster.ServerCPUNanos() == 0 {
			t.Fatal("server burned no CPU despite offloading")
		}
	}
}

func TestDecideMeasuredOverride(t *testing.T) {
	tr, err := GenerateTrace(OpenImagesProfile(300), 4)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Bandwidth: Mbps(500), ComputeCores: 48, StorageCores: 8, StorageSlowdown: 1, GPU: AlexNet}
	cpuBound := Stage1Result{GPUThroughput: 500, IOThroughput: 400, CPUThroughput: 50}
	d, err := DecideMeasured(tr, env, cpuBound)
	if err != nil {
		t.Fatal(err)
	}
	if d.Activated {
		t.Fatal("measured CPU-bound verdict still activated offloading")
	}
}

func TestStartClusterValidation(t *testing.T) {
	if _, err := StartCluster(ClusterConfig{}); err == nil {
		t.Fatal("accepted zero samples")
	}
	if _, err := StartCluster(ClusterConfig{NumSamples: 2, MinDim: 100, MaxDim: 20}); err == nil {
		t.Fatal("accepted inverted dims")
	}
}

func TestAutoTrainWithChaosRetryAndCache(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		DatasetName:     "auto",
		NumSamples:      24,
		Seed:            6,
		MinDim:          96,
		MaxDim:          280,
		CropSize:        64,
		StorageCores:    2,
		ChaosConnBudget: 384 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	trainer, err := cluster.NewTrainer(TrainerOptions{
		Workers:       3,
		BatchSize:     8,
		JobID:         4,
		Shuffle:       true,
		RetryAttempts: 8,
		CacheBytes:    16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()

	decision, reports, err := AutoTrain(trainer, 3, Mbps(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d epoch reports", len(reports))
	}
	for i, r := range reports {
		if r.Samples != 24 {
			t.Fatalf("epoch %d trained %d samples", i+1, r.Samples)
		}
	}
	if reports[1].Offloaded != decision.Plan.OffloadedCount() {
		t.Fatalf("epoch 2 offloaded %d, plan says %d",
			reports[1].Offloaded, decision.Plan.OffloadedCount())
	}
	// Warm cache: later epochs fetch at most the offloaded artifacts.
	if decision.Plan.OffloadedCount() == 0 && reports[2].BytesFetched != 0 {
		t.Fatalf("warm no-offload epoch fetched %d bytes", reports[2].BytesFetched)
	}
	if _, _, err := AutoTrain(trainer, 0, Mbps(4), 1); err == nil {
		t.Fatal("AutoTrain accepted 0 epochs")
	}
}

// TestChaosConnBudgetRetriesOverSeeds: ChaosConnBudget draws each
// connection's byte budget from [1, 2·budget) with the cluster's seed, so a
// connection can close early, even inside its handshake. Over several seeds
// the eight attempts TestAutoTrainWithChaosRetryAndCache gives its trainer
// still carry every epoch to all its samples while links are being severed.
func TestChaosConnBudgetRetriesOverSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("three live epochs per seed")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cluster, err := StartCluster(ClusterConfig{
			DatasetName:     "auto",
			NumSamples:      24,
			Seed:            seed,
			MinDim:          96,
			MaxDim:          280,
			CropSize:        64,
			StorageCores:    2,
			ChaosConnBudget: 384 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		trainer, err := cluster.NewTrainer(TrainerOptions{
			Workers:       3,
			BatchSize:     8,
			JobID:         4,
			Shuffle:       true,
			RetryAttempts: 8,
		})
		if err != nil {
			cluster.Close()
			t.Fatal(err)
		}
		for e := uint64(1); e <= 3; e++ {
			rep, err := trainer.RunEpoch(e, nil, nil)
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, e, err)
			}
			if rep.Samples != 24 {
				t.Fatalf("seed %d epoch %d trained %d samples", seed, e, rep.Samples)
			}
		}
		trainer.Close()
		closes := cluster.tier.ChaosStats(0).Closes
		cluster.Close()
		if closes == 0 {
			t.Fatalf("seed %d: no connection was severed", seed)
		}
		t.Logf("seed %d: %d connections severed", seed, closes)
	}
}

func TestBatchedTrainerViaPublicAPI(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		NumSamples: 12, Seed: 8, MinDim: 48, MaxDim: 96, CropSize: 48, StorageCores: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	trainer, err := cluster.NewTrainer(TrainerOptions{
		Workers: 2, BatchSize: 4, JobID: 1, FetchBatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	rep, err := trainer.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 12 {
		t.Fatalf("trained %d", rep.Samples)
	}
}

func TestGPUProfilesExported(t *testing.T) {
	if !AlexNet.Valid() {
		t.Fatalf("model %q invalid", AlexNet.Name)
	}
	if ImageNetProfile(100).N != 100 || OpenImagesProfile(0).N != 40000 {
		t.Fatal("profile scaling broken")
	}
}

// serverCounters exposes the raw counters to the monitor integration.
func (c *Cluster) serverCounters() *storage.Counters { return c.tier.Counters()[0] }
