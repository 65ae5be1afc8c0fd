// Fault tolerance: the storage link drops every connection after a byte
// budget (chaos injection), and the trainer's reconnect-and-retry client
// completes training anyway — offloaded fetches are idempotent because
// augmentation randomness depends only on (job, epoch, sample). A local
// no-evict cache on top removes most raw refetches after epoch 1.
package main

import (
	"fmt"
	"log"

	sophon "repro"
)

func main() {
	cluster, err := sophon.StartCluster(sophon.ClusterConfig{
		DatasetName:     "chaos",
		NumSamples:      64,
		Seed:            13,
		MinDim:          128,
		MaxDim:          360,
		CropSize:        64,
		StorageCores:    2,
		BandwidthMbps:   8,       // slow link → I/O-bound → offloading activates
		ChaosConnBudget: 1 << 20, // every connection dies after ~1 MB
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	trainer, err := cluster.NewTrainer(sophon.TrainerOptions{
		Workers:       4,
		BatchSize:     16,
		JobID:         2,
		Shuffle:       true,
		RetryAttempts: 10,
		CacheBytes:    32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	decision, reports, err := sophon.AutoTrain(trainer, 4, sophon.Mbps(8), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision: activated=%v, offloading %d/%d samples\n",
		decision.Activated, decision.Plan.OffloadedCount(), trainer.N())
	for _, r := range reports {
		fmt.Printf("epoch %d: %d samples, %.2f MB fetched, %d offloaded (despite 1 MB chaos budget per conn)\n",
			r.Epoch, r.Samples, float64(r.BytesFetched)/1e6, r.Offloaded)
	}
	fmt.Println("training completed over a link that killed every connection after ~1 MB")
}
