// Package cluster is the sharded storage tier: a rendezvous-hashed shard
// map that assigns every sample to exactly one storage server, a launcher
// that runs one storage.Server per shard (each owning only its shard's
// samples, with its own core-bounded executor and optionally its own shaped
// link), and a fan-out client that partitions batch fetches per shard,
// pipelines them concurrently over one session per shard, and reassembles
// results in input order. It multiplies both binding resources of the
// single-node setup — storage CPU cores and the storage↔compute link — the
// way NoPFS/CoorDL-style distributed ML I/O tiers do.
package cluster

import (
	"fmt"
)

// layoutVersion identifies the sample→shard placement function. It is part
// of the hash input, so changing how placement works requires bumping it
// deliberately: a client and a cluster disagree about placement only if they
// disagree about this constant.
const layoutVersion = 1

// ShardMap deterministically assigns sample IDs to shards by rendezvous
// (highest-random-weight) hashing: every (sample, shard) pair gets a stable
// pseudo-random weight and the sample lives on the shard with the highest
// one. The layout is stable across processes and releases (it depends only
// on FNV-1a, a fixed avalanche finalizer, and layoutVersion) and resizing
// from N to N+1 shards moves only
// ~1/(N+1) of the samples — the HRW property that makes rebalancing cheap.
type ShardMap struct {
	shards  int
	version uint32
}

// NewShardMap builds a map over shards servers.
func NewShardMap(shards int) (*ShardMap, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", shards)
	}
	return &ShardMap{shards: shards, version: layoutVersion}, nil
}

// FNV-1a 64-bit constants.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// weight is the HRW score of placing sample on shard: FNV-1a over the
// layout version, the shard index, and the sample ID (each mixed in
// big-endian byte order so the value is identical on every platform),
// finished with a 64-bit avalanche pass. The finalizer is part of layout
// version 1: raw FNV-1a barely diffuses the trailing bytes — the sample is
// mixed last and its low bytes see only one or two multiplications by the
// 2^40-sized prime — so without it the cross-shard ordering is nearly
// constant over small sample IDs and HRW degenerates to one shard.
func (m *ShardMap) weight(sample uint32, shard int) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint32) {
		for i := 3; i >= 0; i-- {
			h ^= uint64(byte(v >> (8 * i)))
			h *= fnvPrime
		}
	}
	mix(m.version)
	mix(uint32(shard))
	mix(sample)
	// fmix64-style finalizer (MurmurHash3).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ShardOf returns the shard owning sample. Ties (astronomically unlikely)
// break toward the lower shard index, deterministically.
func (m *ShardMap) ShardOf(sample uint32) int {
	if m.shards == 1 {
		return 0
	}
	best, bestW := 0, m.weight(sample, 0)
	for s := 1; s < m.shards; s++ {
		if w := m.weight(sample, s); w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// partition groups the positions of samples by owning shard: element s of
// the result lists the indices i (into samples) with ShardOf(samples[i]) ==
// s, in input order. Reassembling a fanned-out batch is then a matter of
// writing each shard's results back through its index list.
func (m *ShardMap) partition(samples []uint32) [][]int {
	out := make([][]int, m.shards)
	for i, id := range samples {
		s := m.ShardOf(id)
		out[s] = append(out[s], i)
	}
	return out
}

// Owned lists the sample IDs in [0, n) placed on shard, ascending.
func (m *ShardMap) Owned(n, shard int) []uint32 {
	var out []uint32
	for id := 0; id < n; id++ {
		if m.ShardOf(uint32(id)) == shard {
			out = append(out, uint32(id))
		}
	}
	return out
}
