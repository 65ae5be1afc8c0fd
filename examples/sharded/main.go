// Sharded walkthrough: boot a three-shard in-process storage tier, train
// over the fan-out client, then crash one shard mid-run and watch a
// degraded-mode epoch complete anyway — every healthy shard's samples still
// flow, and the report counts exactly the dead shard's samples as failed.
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

func main() {
	const (
		samples = 96
		shards  = 3
	)

	// The full dataset, materialized once; Launch partitions it so each
	// shard server owns only the samples the rendezvous hash places on it.
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "sharded-demo", N: samples, Seed: 11, MinDim: 64, MaxDim: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		log.Fatal(err)
	}

	tier, err := cluster.Launch(cluster.Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      pipeline.Standard(pipeline.StandardOptions{CropSize: 96, FlipP: -1}),
		CoresPerShard: 2,
		LinkMbps:      500, // one 500 Mbps link PER SHARD — the tier's point
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tier.Close()
	for s := 0; s < shards; s++ {
		fmt.Printf("shard %d owns %d/%d samples\n",
			s, len(tier.ShardMap().Owned(samples, s)), samples)
	}

	// A second fan-out client just for observability: per-shard stats off
	// the same sessions. Dialed now, while every shard is reachable.
	statsClient, err := tier.NewShardedClient(storage.ClientOptions{JobID: 1}, 1, 0, true)
	if err != nil {
		log.Fatal(err)
	}
	defer statsClient.Close()

	// The trainer sees ONE storage client; underneath, batches partition by
	// shard and fan out concurrently over one session per shard.
	// DegradedMode makes a dead shard cost only its own samples.
	trainer, err := trainsim.New(trainsim.Config{
		DialClient: func() (storage.Fetcher, error) {
			return tier.NewShardedClient(storage.ClientOptions{JobID: 1},
				2, 50*time.Millisecond, true)
		},
		Workers:        4,
		GPU:            gpu.AlexNet,
		BatchSize:      16,
		JobID:          1,
		Shuffle:        true,
		FetchBatchSize: 16,
		DegradedMode:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	// Epoch 1: every shard healthy.
	report, err := trainer.RunEpoch(1, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch 1 (all shards up): %d samples, %d failed, %.2f MB fetched\n",
		report.Samples, report.Failed, float64(report.BytesFetched)/1e6)

	// Crash shard 2 — listener and server both go away, as a storage-node
	// failure would take them.
	const dead = 2
	if err := tier.KillShard(dead); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshard %d killed; training on\n", dead)

	// Epoch 2 completes in degraded mode: only the dead shard's samples are
	// reported failed, everything else trains normally.
	report, err = trainer.RunEpoch(2, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch 2 (degraded): %d samples trained, %d failed (shard %d owned %d)\n",
		report.Samples, report.Failed, dead, len(tier.ShardMap().Owned(samples, dead)))

	// Per-shard stats straight off the fan-out client: the dead shard
	// reports its error, the healthy ones their counters.
	fmt.Println()
	for _, ss := range statsClient.ShardStats(context.Background()) {
		if ss.Err != nil {
			fmt.Printf("shard %d: unreachable\n", ss.Shard)
			continue
		}
		fmt.Printf("shard %d: served %d samples, sent %.2f MB, burned %.2fs CPU\n",
			ss.Shard, ss.Stats.SamplesServed,
			float64(ss.Stats.BytesSent)/1e6, float64(ss.Stats.ServerCPUNanos)/1e9)
	}
}
