package sophon

// Full-stack integration: a bandwidth-shaped storage server with chaos
// injection, monitored over HTTP, profiled by the two-stage profiler, planned
// by the decision engine, trained with batched fetches + retry + local cache,
// and cross-checked against the discrete-event engine — every subsystem in
// one scenario.

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/monitor"
	"repro/internal/persist"
)

func TestFullStackIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration")
	}
	cluster, err := StartCluster(ClusterConfig{
		DatasetName:     "integration",
		NumSamples:      40,
		Seed:            99,
		MinDim:          128,
		MaxDim:          360,
		CropSize:        64,
		StorageCores:    2,
		BandwidthMbps:   16,
		ChaosConnBudget: 2 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	trainer, err := cluster.NewTrainer(TrainerOptions{
		Workers:        4,
		BatchSize:      8,
		JobID:          17,
		Shuffle:        true,
		FetchBatchSize: 4,
		RetryAttempts:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()

	// Two-stage profiling over the real (shaped, chaotic) link.
	trace, stage1, epoch1, err := trainer.Profile(2)
	if err != nil {
		t.Fatal(err)
	}
	if epoch1.Samples != 40 || trace.N() != 40 {
		t.Fatalf("profiling epoch: %d samples, trace %d", epoch1.Samples, trace.N())
	}

	// Persist the trace and reload it — the profile-once workflow.
	tracePath := t.TempDir() + "/trace.bin"
	if err := persist.SaveTrace(tracePath, trace); err != nil {
		t.Fatal(err)
	}
	reloaded, err := persist.LoadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.N() != trace.N() || reloaded.TotalRawBytes() != trace.TotalRawBytes() {
		t.Fatal("trace changed across persistence")
	}

	// Decide with the measured stage-1 verdict against the real env.
	env := Env{
		Bandwidth:       Mbps(16),
		ComputeCores:    4,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             AlexNet,
	}
	decision, err := DecideMeasured(reloaded, env, stage1)
	if err != nil {
		t.Fatal(err)
	}
	if !decision.Activated || decision.Plan.OffloadedCount() == 0 {
		if raceEnabled {
			// Under the race detector local CPU is ~20× slower while the
			// link is not, so the measured bottleneck legitimately moves
			// from IO to CPU and the gate correctly declines to offload.
			t.Skipf("race detector skews stage-1 probes (stage1 %+v)", stage1)
		}
		t.Fatalf("expected activation on a 16 Mbps link: %+v (stage1 %+v)", decision.Activated, stage1)
	}

	// Train under the plan; traffic must drop versus the profiling epoch.
	epoch2, err := trainer.TrainEpoch(2, decision.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if epoch2.Samples != 40 || epoch2.Offloaded != decision.Plan.OffloadedCount() {
		t.Fatalf("epoch 2: %+v", epoch2)
	}
	if epoch2.BytesFetched >= epoch1.BytesFetched {
		t.Fatalf("offloading did not cut traffic: %d vs %d", epoch2.BytesFetched, epoch1.BytesFetched)
	}

	// The discrete-event engine, replaying the measured trace under the
	// same plan, should agree with the live traffic within framing noise.
	sim, err := SimulateEpoch(reloaded, decision.Plan, env)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(sim.TrafficBytes) / float64(epoch2.BytesFetched)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("DES traffic %d vs live %d (%.2fx)", sim.TrafficBytes, epoch2.BytesFetched, ratio)
	}

	// The storage server burned CPU on offloaded prefixes and the HTTP
	// monitor reports it.
	if cluster.ServerCPUNanos() == 0 {
		t.Fatal("no storage CPU recorded")
	}
	mon := monitor.New(cluster.serverCounters())
	addr, err := mon.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		SamplesServed uint64 `json:"samples_served"`
		OpsExecuted   uint64 `json:"ops_executed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SamplesServed == 0 || stats.OpsExecuted == 0 {
		t.Fatalf("monitor stats empty: %+v", stats)
	}
}
