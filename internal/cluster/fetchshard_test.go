package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestFetchShard drives the per-shard issue path the clairvoyant prefetcher
// uses: sub-batches routed by ShardInfo's placement function must come back
// in input order with the exact stored bytes, from the right shard.
func TestFetchShard(t *testing.T) {
	const n = 48
	store := testStore(t, n)
	c := launch(t, store, 3, 1)
	sc := shardedClient(t, c, false)

	shards, shardOf, ok := sc.ShardInfo()
	if !ok || shards != 3 {
		t.Fatalf("ShardInfo = (%d, _, %v), want (3, _, true)", shards, ok)
	}
	ctx := context.Background()
	served := 0
	for s := 0; s < shards; s++ {
		var samples []uint32
		var splits []int
		for id := 0; id < n; id++ {
			if shardOf(uint32(id)) == s {
				samples = append(samples, uint32(id))
				splits = append(splits, 0)
			}
		}
		if len(samples) == 0 {
			continue
		}
		res, err := sc.FetchShard(ctx, s, samples, splits, 1)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		for k, r := range res {
			if r.Sample != samples[k] || r.Status != wire.FetchOK || r.Err != nil {
				t.Fatalf("shard %d item %d: sample %d status %v err %v", s, k, r.Sample, r.Status, r.Err)
			}
			want, err := store.Get(samples[k])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.Artifact.Raw, want) {
				t.Fatalf("shard %d sample %d: wrong payload", s, r.Sample)
			}
		}
		served += len(res)

		// The fan-out's answer to a batch that lives on one shard is that
		// shard's answer: FetchBatch only partitions and reassembles.
		viaBatch, err := sc.FetchBatch(ctx, samples, splits, 1)
		if err != nil {
			t.Fatalf("shard %d through FetchBatch: %v", s, err)
		}
		if !reflect.DeepEqual(viaBatch, res) {
			t.Fatalf("shard %d: FetchBatch of a single-shard batch differs from FetchShard", s)
		}
	}
	if served != n {
		t.Fatalf("served %d samples across shards, want %d", served, n)
	}

	if _, err := sc.FetchShard(ctx, 7, []uint32{0}, []int{0}, 1); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := sc.FetchShard(ctx, 0, []uint32{0}, []int{0, 1}, 1); err == nil {
		t.Fatal("mismatched splits accepted")
	}
	if _, err := sc.FetchShard(ctx, 0, nil, nil, 1); err == nil {
		t.Fatal("empty batch accepted")
	}
	big := make([]uint32, wire.MaxBatchItems+1)
	if _, err := sc.FetchShard(ctx, 0, big, make([]int, len(big)), 1); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestFetchShardPartitioned: a severed shard's FetchShard fails with
// ErrShardDown (the scheduler's fail-fast classifier) while other shards
// keep serving.
func TestFetchShardPartitioned(t *testing.T) {
	const n = 30
	store := testStore(t, n)
	c := launchChaos(t, store, 2, &chaos.Plan{Seed: 1})
	sc := shardedClient(t, c, true)

	if err := c.PartitionShard(0, true); err != nil {
		t.Fatal(err)
	}
	_, shardOf, _ := sc.ShardInfo()
	var dead, live []uint32
	for id := 0; id < n; id++ {
		if shardOf(uint32(id)) == 0 {
			dead = append(dead, uint32(id))
		} else {
			live = append(live, uint32(id))
		}
	}
	ctx := context.Background()
	_, err := sc.FetchShard(ctx, 0, dead[:1], []int{0}, 1)
	if !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("partitioned shard error = %v, want ErrShardDown", err)
	}
	res, err := sc.FetchShard(ctx, 1, live[:2], []int{0, 0}, 1)
	if err != nil {
		t.Fatalf("healthy shard: %v", err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("healthy shard sample %d: %v", r.Sample, r.Err)
		}
	}
	var _ storage.ShardRouter = sc // compile-time: the fan-out client routes
}
