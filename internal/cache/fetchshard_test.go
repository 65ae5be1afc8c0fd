package cache_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/storage"
)

// TestTenantFetchShardStacksCache: the per-shard issue path must serve
// shared-cache hits locally (zero wire bytes) and retain its misses, exactly
// like FetchBatch — the deepest-first preference of the prefetch stack.
func TestTenantFetchShardStacksCache(t *testing.T) {
	const n = 20
	tier := launchTier(t, n, 2)
	shared, err := cache.NewShared(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	a := tenantOver(t, tier, shared, "tenant-a")
	b := tenantOver(t, tier, shared, "tenant-b")
	ctx := context.Background()

	shards, shardOf, ok := a.ShardInfo()
	if !ok || shards != 2 {
		t.Fatalf("ShardInfo through the cache = (%d, _, %v), want (2, _, true)", shards, ok)
	}
	var owned []uint32
	var splits []int
	for id := uint32(0); id < n; id++ {
		if shardOf(id) == 1 {
			owned = append(owned, id)
			splits = append(splits, 3)
		}
	}
	first, err := a.FetchShard(ctx, 1, owned, splits, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.Err != nil || r.WireBytes == 0 {
			t.Fatalf("cold fetch of sample %d: err=%v wire=%d", r.Sample, r.Err, r.WireBytes)
		}
	}
	second, err := b.FetchShard(ctx, 1, owned, splits, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range second {
		if r.Err != nil {
			t.Fatalf("warm fetch of sample %d: %v", r.Sample, r.Err)
		}
		if r.WireBytes != 0 {
			t.Fatalf("sample %d hit the wire (%d bytes) despite a shared-cache entry", r.Sample, r.WireBytes)
		}
		if !first[k].Artifact.Equal(r.Artifact) {
			t.Fatalf("sample %d: cache hit differs from the wire artifact", r.Sample)
		}
	}
	if hits := shared.TenantStats("tenant-b").Hits; hits != int64(len(owned)) {
		t.Fatalf("tenant-b hits = %d, want %d", hits, len(owned))
	}
	var _ storage.ShardRouter = a // compile-time: the cache stack routes
}
