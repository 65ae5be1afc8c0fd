package cluster

import (
	"reflect"
	"testing"
)

// TestShardOfGolden pins the layout-version-1 placement: these values must
// never change without bumping layoutVersion, or deployed clients and
// clusters would silently disagree about who owns what.
func TestShardOfGolden(t *testing.T) {
	golden := map[int][]int{
		2: {0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1},
		3: {0, 2, 0, 0, 1, 1, 2, 1, 0, 1, 2, 2, 2, 2, 1, 1},
		4: {3, 2, 0, 3, 1, 1, 2, 1, 0, 3, 2, 2, 2, 2, 3, 1},
	}
	for k, want := range golden {
		m, err := NewShardMap(k)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(want))
		for id := range got {
			got[id] = m.ShardOf(uint32(id))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: layout drifted\n got %v\nwant %v (bump LayoutVersion if intentional)", k, got, want)
		}
	}
}

func TestNewShardMapRejectsNonPositive(t *testing.T) {
	for _, k := range []int{0, -1} {
		if _, err := NewShardMap(k); err == nil {
			t.Errorf("NewShardMap(%d): want error", k)
		}
	}
}

func TestShardOfSingleShard(t *testing.T) {
	m, err := NewShardMap(1)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 100; id++ {
		if s := m.ShardOf(id); s != 0 {
			t.Fatalf("ShardOf(%d) = %d with one shard", id, s)
		}
	}
}

// TestBalance checks the HRW weights actually spread load: each shard's
// share of 10k samples must be within 20% of the fair share.
func TestBalance(t *testing.T) {
	const n = 10000
	for k := 2; k <= 8; k++ {
		m, err := NewShardMap(k)
		if err != nil {
			t.Fatal(err)
		}
		fair := float64(n) / float64(k)
		for s, c := range counts(m, n) {
			if ratio := float64(c) / fair; ratio < 0.8 || ratio > 1.2 {
				t.Errorf("k=%d shard %d holds %d samples (%.2fx fair share)", k, s, c, ratio)
			}
		}
	}
}

// TestPartitionOwnedCountsAgree checks the three views of the placement are
// consistent with ShardOf and with each other.
func TestPartitionOwnedCountsAgree(t *testing.T) {
	const n = 500
	m, err := NewShardMap(4)
	if err != nil {
		t.Fatal(err)
	}

	samples := make([]uint32, n)
	for i := range samples {
		samples[i] = uint32(i)
	}
	parts := m.partition(samples)
	want := counts(m, n)

	total := 0
	for s, idxs := range parts {
		if len(idxs) != want[s] {
			t.Errorf("shard %d: Partition has %d, ShardOf says %d", s, len(idxs), want[s])
		}
		owned := m.Owned(n, s)
		if len(owned) != want[s] {
			t.Errorf("shard %d: Owned has %d, ShardOf says %d", s, len(owned), want[s])
		}
		for j, i := range idxs {
			if got := m.ShardOf(samples[i]); got != s {
				t.Errorf("Partition put sample %d on shard %d, ShardOf says %d", samples[i], s, got)
			}
			if owned[j] != samples[i] {
				t.Errorf("shard %d: Owned[%d] = %d, Partition order gives %d", s, j, owned[j], samples[i])
			}
			if j > 0 && idxs[j-1] >= i {
				t.Errorf("shard %d: Partition indices not in input order", s)
			}
		}
		total += len(idxs)
	}
	if total != n {
		t.Errorf("partition covers %d of %d samples", total, n)
	}
}

// TestPartitionPreservesDuplicatesAndOrder: partition is positional, so
// duplicate IDs land on the same shard at distinct indices, in input order.
func TestPartitionPreservesDuplicatesAndOrder(t *testing.T) {
	m, err := NewShardMap(2)
	if err != nil {
		t.Fatal(err)
	}
	in := []uint32{7, 7, 1, 7}
	parts := m.partition(in)
	seen := 0
	for s, idxs := range parts {
		for _, i := range idxs {
			if m.ShardOf(in[i]) != s {
				t.Fatalf("index %d on wrong shard", i)
			}
			seen++
		}
	}
	if seen != len(in) {
		t.Fatalf("partition covers %d of %d entries", seen, len(in))
	}
}

// TestResizeMovesFewSamples: growing K→K+1 must relocate roughly 1/(K+1) of
// the samples — the rendezvous property that makes rebalancing cheap. A
// modulo placement would move ~K/(K+1) instead.
func TestResizeMovesFewSamples(t *testing.T) {
	const n = 10000
	for k := 2; k <= 6; k++ {
		a, err := NewShardMap(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewShardMap(k + 1)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for id := uint32(0); id < n; id++ {
			if a.ShardOf(id) != b.ShardOf(id) {
				moved++
			}
		}
		ideal := float64(n) / float64(k+1)
		if f := float64(moved); f < 0.5*ideal || f > 1.5*ideal {
			t.Errorf("%d→%d shards moved %d samples; want ~%.0f (±50%%)", k, k+1, moved, ideal)
		}
	}
}

// counts histograms the first n sample IDs by shard.
func counts(m *ShardMap, n int) []int {
	out := make([]int, m.shards)
	for id := 0; id < n; id++ {
		out[m.ShardOf(uint32(id))]++
	}
	return out
}
