package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/storage"
)

// launchChaos starts a cluster with a fault plan wired through Launch.
func launchChaos(t testing.TB, store *storage.Store, shards int, plan *chaos.Plan) *Cluster {
	t.Helper()
	c, err := Launch(Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      testPipe(),
		CoresPerShard: 1,
		Chaos:         plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestChaosCorruptionRetriedToCorrectBytes: a shard that corrupts its
// traffic must never produce wrong bytes — the checksum turns every flip
// into a retry, and the retried fetch returns exactly the stored object.
func TestChaosCorruptionRetriedToCorrectBytes(t *testing.T) {
	const n = 30
	store := testStore(t, n)
	// Corrupt aggressively on every shard so hits are certain.
	plan := &chaos.Plan{Seed: 99, Shards: []chaos.Profile{
		{CorruptEvery: 8 << 10}, {CorruptEvery: 8 << 10},
	}}
	c := launchChaos(t, store, 2, plan)
	// Corruption is injected by byte count, not by time, so a retry
	// succeeds as well after 1 ms as after a longer pause.
	sc, err := c.NewShardedClient(storage.ClientOptions{JobID: 7}, 8, time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	for k := 0; k < n; k++ {
		res, err := storage.FetchOne(context.Background(), sc, uint32(k), 0, 1)
		if err != nil {
			t.Fatalf("fetch %d under corruption: %v", k, err)
		}
		want, err := store.Get(uint32(k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Artifact.Raw, want) {
			t.Fatalf("sample %d: corrupted bytes leaked through the checksum", k)
		}
	}
	injected := c.ChaosStats(0).Corrupts + c.ChaosStats(1).Corrupts
	if injected == 0 {
		t.Fatal("plan injected no corruptions — the test exercised nothing")
	}
}

// TestPartitionShardDegradedAndHeal: a partitioned shard degrades exactly
// its own keys (ErrShardDown on the result, nil call error in degraded
// mode), other shards stay clean, and healing restores full service.
func TestPartitionShardDegradedAndHeal(t *testing.T) {
	const n = 40
	store := testStore(t, n)
	plan := &chaos.Plan{Seed: 1} // no per-conn faults; just partition support
	c := launchChaos(t, store, 2, plan)
	sc, err := c.NewShardedClient(storage.ClientOptions{JobID: 7}, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	owned0 := c.ShardMap().Owned(n, 0)
	owned1 := c.ShardMap().Owned(n, 1)

	if err := c.PartitionShard(0, true); err != nil {
		t.Fatal(err)
	}
	// A single fetch has no healthy remainder to salvage: the call errors,
	// typed ErrShardDown and mirrored into the result.
	res, err := storage.FetchOne(context.Background(), sc, owned0[0], 0, 1)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("partitioned shard's fetch err = %v, want ErrShardDown", err)
	}
	if !errors.Is(res.Err, ErrShardDown) {
		t.Fatalf("partitioned shard's result err = %v, want ErrShardDown", res.Err)
	}
	// A batch call in degraded mode salvages the healthy shard: nil call
	// error, ErrShardDown only on the partitioned shard's items.
	batch := []uint32{owned0[0], owned1[0], owned1[1]}
	bres, err := sc.FetchBatch(context.Background(), batch, []int{0, 0, 0}, 1)
	if err != nil {
		t.Fatalf("degraded batch should not fail the call: %v", err)
	}
	if !errors.Is(bres[0].Err, ErrShardDown) {
		t.Fatalf("partitioned item err = %v, want ErrShardDown", bres[0].Err)
	}
	if bres[1].Err != nil || bres[2].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", bres[1].Err, bres[2].Err)
	}
	for _, id := range owned1[:3] {
		if res, err := storage.FetchOne(context.Background(), sc, id, 0, 1); err != nil || res.Err != nil {
			t.Fatalf("healthy shard's key %d failed under the other's partition: %v / %v", id, err, res.Err)
		}
	}

	if err := c.PartitionShard(0, false); err != nil {
		t.Fatal(err)
	}
	if res, err := storage.FetchOne(context.Background(), sc, owned0[0], 0, 1); err != nil || res.Err != nil {
		t.Fatalf("fetch after heal: %v / %v", err, res.Err)
	}
}

// TestPartitionRequiresChaos: partitioning is only available when the
// cluster was launched with a plan.
func TestPartitionRequiresChaos(t *testing.T) {
	c := launch(t, testStore(t, 8), 2, 1)
	if err := c.PartitionShard(0, true); err == nil {
		t.Fatal("partition without a chaos plan should error")
	}
	if err := c.PartitionShard(-1, true); err == nil {
		t.Fatal("out-of-range shard should error")
	}
	if got := c.ChaosStats(0); got != (chaos.StatsSnapshot{}) {
		t.Fatalf("chaos-free cluster reported stats %+v", got)
	}
}

// TestChaosSlowShardStillCorrect: a shard with scheduled delays and stalls
// returns correct bytes late rather than wrong bytes fast.
func TestChaosSlowShardStillCorrect(t *testing.T) {
	const n = 20
	store := testStore(t, n)
	plan := &chaos.Plan{Seed: 5, Shards: []chaos.Profile{{
		DelayEvery: 4 << 10, Delay: 200 * time.Microsecond,
		StallEvery: 64 << 10, Stall: time.Millisecond,
	}}}
	c := launchChaos(t, store, 2, plan)
	// Delays and stalls slow a fetch but never fail it, so the pause is
	// only a fallback: 4 tries 10 ms apart.
	sc, err := c.NewShardedClient(storage.ClientOptions{JobID: 7}, 4, 10*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for k := 0; k < n; k++ {
		res, err := storage.FetchOne(context.Background(), sc, uint32(k), 0, 1)
		if err != nil {
			t.Fatalf("fetch %d on slow shard: %v", k, err)
		}
		want, _ := store.Get(uint32(k))
		if !bytes.Equal(res.Artifact.Raw, want) {
			t.Fatalf("sample %d bytes wrong under delays", k)
		}
	}
	if c.ChaosStats(0).Delays == 0 {
		t.Fatal("slow-shard profile injected no delays")
	}
}
