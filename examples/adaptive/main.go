// Adaptive walkthrough: profile and train against a 500 Mbps link, then
// reshape it to 250 Mbps mid-run and watch the control plane notice — the
// between-epoch bandwidth probe drifts past its gate, the controller replans
// at the next epoch boundary, and each epoch prints the plan version it ran.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	sophon "repro"
)

func main() {
	// "Storage node": 2 preprocessing cores behind a 500 Mbps shaped link —
	// scarce enough on both axes that the best plan depends on the link rate.
	cluster, err := sophon.StartCluster(sophon.ClusterConfig{
		DatasetName:   "adaptive-demo",
		NumSamples:    48,
		Seed:          3,
		MinDim:        192,
		MaxDim:        448,
		CropSize:      96,
		StorageCores:  2,
		BandwidthMbps: 500,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// "Compute node". No local cache: the bandwidth probe must measure the
	// link, and a cache would answer the probe's fetches locally.
	trainer, err := cluster.NewTrainer(sophon.TrainerOptions{
		Workers:        4,
		BatchSize:      8,
		JobID:          1,
		FetchBatchSize: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	// Epoch 1 is the paper's profiling epoch: no offloading, per-sample
	// metrics collected into a trace the controller will replan over.
	trace, _, _, err := trainer.Profile(2)
	if err != nil {
		log.Fatal(err)
	}

	// The controller computes plan v1 against the profiled environment and
	// replans whenever a measurement drifts ≥35% from what the live plan
	// assumes (hysteresis 1: a single drifted epoch is enough).
	ctrl, err := sophon.NewController(sophon.ControllerConfig{
		Trace: trace,
		Env:   trainer.Env(sophon.Mbps(500)),
		Drift: sophon.DriftConfig{Alpha: 1, RelThreshold: 0.35, Hysteresis: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	const epochs = 5
	for e := uint64(2); e <= epochs; e++ {
		// Halve the link before epoch 4 — a live network degradation.
		if e == 4 {
			if err := cluster.SetBandwidth(250); err != nil {
				log.Fatal(err)
			}
			fmt.Println("\n*** link reshaped 500 → 250 Mbps ***")
		}

		// Train under the controller's current snapshot.
		snap := ctrl.Current()
		report, err := trainer.RunEpoch(e, snap.Plan, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d under plan v%d: %d/%d offloaded, %.2f MB fetched\n",
			e, snap.Version, report.Offloaded, report.Samples,
			float64(report.BytesFetched)/1e6)

		// Between epochs, re-measure the link with a serial fetch probe and
		// let the controller decide whether the plan still fits.
		bw, err := trainer.MeasureBandwidth(96)
		if err != nil {
			log.Fatal(err)
		}
		_, drift, err := ctrl.ObserveEpoch(sophon.EpochSample{Epoch: e, Bandwidth: bw})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  probe: %.1f MB/s", bw/1e6)
		if drift != nil {
			fmt.Printf("  → drift, replanning for epoch %d", e+1)
		}
		fmt.Println()
	}

	// The replan history names every transition.
	fmt.Println("\nreplan history:")
	for _, ev := range ctrl.History() {
		fmt.Printf("  %s\n", ev)
	}
}
