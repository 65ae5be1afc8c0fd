package storage

import "context"

// ShardRouter is the optional client capability the clairvoyant prefetch
// scheduler drives: a client that can expose its placement function and
// accept sub-batches routed to one shard. *cluster.ShardedClient implements
// it. A plain single-server client does not, and neither does
// *cache.TenantFetcher, so a trainer behind the shared cache schedules a
// sharded tier as one shard too.
//
// The interface lives here (not in cluster) because it is part of the
// client contract every layer of the fetch stack speaks, and the packages
// on both sides of that stack already depend on storage.
type ShardRouter interface {
	// ShardInfo reports the fan-out width and placement function, or
	// ok=false when the underlying transport has no shard structure (the
	// caller should fall back to single-link scheduling).
	ShardInfo() (shards int, shardOf func(sample uint32) int, ok bool)
	// FetchShard issues one round trip for a sub-batch that lives entirely
	// on the given shard, bypassing the fan-out partitioner. Per-item
	// errors surface in FetchResult.Err; a non-nil error describes the
	// whole round trip (shard transport failure, validation).
	FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]FetchResult, error)
}
