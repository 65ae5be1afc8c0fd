package cluster

// Property tests for the rendezvous shard map, driven by testing/quick:
// randomized shard counts and sample populations must always satisfy the
// placement invariants the fan-out client and the chaos soak's failure
// accounting both lean on.

import (
	"math"
	"testing"
	"testing/quick"
)

// quickCfg bounds the random draws: shard counts stay small (that is the
// deployment reality), sample IDs use the full uint32 space.
var quickCfg = &quick.Config{MaxCount: 200}

// TestQuickOneOwnerPerKey: ShardOf is a function — one owner, always in
// range, stable across calls and across independently built maps.
func TestQuickOneOwnerPerKey(t *testing.T) {
	f := func(shardSeed uint8, sample uint32) bool {
		shards := int(shardSeed)%16 + 1
		m, err := NewShardMap(shards)
		if err != nil {
			return false
		}
		m2, err := NewShardMap(shards)
		if err != nil {
			return false
		}
		s := m.ShardOf(sample)
		return s >= 0 && s < shards && s == m.ShardOf(sample) && s == m2.ShardOf(sample)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartitionIsExactCover: partition's index lists form an exact
// cover of the input — every position appears once, under its owning shard,
// in input order.
func TestQuickPartitionIsExactCover(t *testing.T) {
	f := func(shardSeed uint8, samples []uint32) bool {
		shards := int(shardSeed)%8 + 1
		m, err := NewShardMap(shards)
		if err != nil {
			return false
		}
		parts := m.partition(samples)
		if len(parts) != shards {
			return false
		}
		seen := make([]bool, len(samples))
		for s, idxs := range parts {
			prev := -1
			for _, i := range idxs {
				if i < 0 || i >= len(samples) || seen[i] || i <= prev {
					return false
				}
				if m.ShardOf(samples[i]) != s {
					return false
				}
				seen[i] = true
				prev = i
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBalanceWithinTolerance: over a dense sample range, every shard's
// share stays within 25% of the ideal n/K — rendezvous hashing with a real
// avalanche keeps the layout statistically flat.
func TestQuickBalanceWithinTolerance(t *testing.T) {
	f := func(shardSeed uint8) bool {
		shards := int(shardSeed)%8 + 1
		const n = 4096
		m, err := NewShardMap(shards)
		if err != nil {
			return false
		}
		ideal := float64(n) / float64(shards)
		total := 0
		for s := 0; s < shards; s++ {
			c := len(m.Owned(n, s))
			total += c
			if math.Abs(float64(c)-ideal) > 0.25*ideal {
				t.Logf("shard %d/%d owns %d of %d (ideal %.0f)", s, shards, c, n, ideal)
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickResizeMovesOnlyToNewShard: growing K → K+1 never reshuffles a
// key between surviving shards — a key either stays put or moves to the new
// shard — and the number that move is ≈ n/(K+1). This is the HRW property
// the roadmap's cheap-rebalancing claim rests on.
func TestQuickResizeMovesOnlyToNewShard(t *testing.T) {
	f := func(shardSeed uint8, base uint32) bool {
		k := int(shardSeed)%6 + 1
		const n = 2048
		small, err := NewShardMap(k)
		if err != nil {
			return false
		}
		big, err := NewShardMap(k + 1)
		if err != nil {
			return false
		}
		moved := 0
		for i := 0; i < n; i++ {
			id := base + uint32(i) // a window anywhere in key space
			before, after := small.ShardOf(id), big.ShardOf(id)
			if after != before {
				if after != k { // moved somewhere other than the new shard
					t.Logf("K=%d: key %d moved %d → %d, not to new shard %d", k, id, before, after, k)
					return false
				}
				moved++
			}
		}
		// Expected share is n/(K+1); allow ±40% relative slack for a window
		// of only 2048 keys.
		want := float64(n) / float64(k+1)
		if math.Abs(float64(moved)-want) > 0.4*want {
			t.Logf("K=%d: %d keys moved, expected ≈ %.0f", k, moved, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOwnedMatchesShardOf: Owned is exactly the ascending preimage of
// ShardOf over [0, n) — the chaos soak trusts this for its exact
// partition-failure accounting.
func TestQuickOwnedMatchesShardOf(t *testing.T) {
	f := func(shardSeed uint8, nSeed uint16) bool {
		shards := int(shardSeed)%8 + 1
		n := int(nSeed)%512 + shards
		m, err := NewShardMap(shards)
		if err != nil {
			return false
		}
		total := 0
		for s := 0; s < shards; s++ {
			owned := m.Owned(n, s)
			total += len(owned)
			prev := int64(-1)
			for _, id := range owned {
				if int64(id) <= prev || m.ShardOf(id) != s {
					return false
				}
				prev = int64(id)
			}
		}
		return total == n
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
