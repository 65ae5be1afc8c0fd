// Quickstart: boot an in-process two-node cluster, run SOPHON's two-stage
// profiler, plan, and train a few epochs with selective offloading — the
// whole Figure 2 flow in ~40 lines of API calls.
package main

import (
	"fmt"
	"log"

	sophon "repro"
)

// linkMbps is the storage link's rate, which the plan assumes too.
const linkMbps = 16

func main() {
	// "Storage node": in-memory object store + near-storage executor with
	// 2 preprocessing cores, serving 48 synthetic photos in process over a
	// shaped link.
	cluster, err := sophon.StartCluster(sophon.ClusterConfig{
		DatasetName:   "quickstart",
		NumSamples:    48,
		Seed:          42,
		MinDim:        64,
		MaxDim:        256,
		CropSize:      96,
		StorageCores:  2,
		BandwidthMbps: linkMbps,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// "Compute node": loader workers + simulated GPU.
	trainer, err := cluster.NewTrainer(sophon.TrainerOptions{
		Workers:   4,
		BatchSize: 16,
		JobID:     1,
		Shuffle:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	// Stage 1 (throughput probes) + stage 2 (profile during epoch 1).
	trace, stage1, epoch1, err := trainer.Profile(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1: gpu=%.0f io=%.0f cpu=%.0f samples/s → %s\n",
		stage1.GPUThroughput, stage1.IOThroughput, stage1.CPUThroughput, stage1.Bottleneck())
	fmt.Printf("epoch 1 (profiling): %d samples, %.2f MB fetched, %v\n",
		epoch1.Samples, float64(epoch1.BytesFetched)/1e6, epoch1.Duration.Round(1e6))

	// Decide: plan against the environment we train in — the trainer's
	// loader and GPU, the storage cores the tier stated at the handshake,
	// and the link it is shaped to. The tiny link makes this quickstart
	// I/O-bound, like the paper's setup.
	decision, err := sophon.Decide(trace, trainer.Env(sophon.Mbps(linkMbps)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision: activated=%v, offloading %d/%d samples, predicted %.2fx speedup\n",
		decision.Activated, decision.Plan.OffloadedCount(), trace.N(), decision.PredictedSpeedup())

	// Train the remaining epochs under the plan.
	for epoch := uint64(2); epoch <= 4; epoch++ {
		report, err := trainer.RunEpoch(epoch, decision.Plan, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: %d samples, %.2f MB fetched, %d offloaded, %v\n",
			epoch, report.Samples, float64(report.BytesFetched)/1e6,
			report.Offloaded, report.Duration.Round(1e6))
	}
	fmt.Printf("storage node burned %.2fs of CPU on offloaded prefixes\n",
		float64(cluster.ServerCPUNanos())/1e9)
}
