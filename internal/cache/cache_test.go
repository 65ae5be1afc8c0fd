package cache

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewNoEvict(0); err == nil {
		t.Fatal("no-evict accepted zero capacity")
	}
	if _, err := NewNoEvict(-1); err == nil {
		t.Fatal("no-evict accepted negative capacity")
	}
}

func TestOversizedObjectNotCached(t *testing.T) {
	c, err := NewNoEvict(50)
	if err != nil {
		t.Fatal(err)
	}
	c.put(1, make([]byte, 100))
	if _, ok := c.get(1); ok {
		t.Fatal("cached an object larger than capacity")
	}
	if c.bytes != 0 {
		t.Fatal("oversized object consumed bytes")
	}
}

// Property: the cache never exceeds capacity and get returns exactly what
// put stored.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 1 << 12
		c, err := NewNoEvict(capacity)
		if err != nil {
			return false
		}
		for _, op := range ops {
			id := uint32(op % 64)
			size := int(op%800) + 1
			data := bytes.Repeat([]byte{byte(id)}, size)
			c.put(id, data)
			if got, ok := c.get(id); ok {
				if len(got) == 0 || got[0] != byte(id) {
					return false
				}
			}
			if c.bytes > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNoEvictKeepsResidentFractionOnCyclicScan demonstrates the DL-cache
// insight: under repeated full scans larger than the cache, a frozen
// resident set keeps a stable capacity-fraction hit rate (a churn-based
// policy such as LRU evicts every object right before its next use).
func TestNoEvictKeepsResidentFractionOnCyclicScan(t *testing.T) {
	const n, objSize, capacity = 200, 10, 500 // cache holds 1/4 of the set
	c, _ := NewNoEvict(capacity)
	obj := bytes.Repeat([]byte{7}, objSize)
	hits := 0
	for epoch := 0; epoch < 10; epoch++ {
		for id := uint32(0); id < n; id++ {
			if _, ok := c.get(id); ok {
				hits++
			} else {
				c.put(id, obj)
			}
		}
	}
	// 9 of 10 epochs hit the 25% resident set: 0.225 of lookups.
	if hits != 9*capacity/objSize {
		t.Fatalf("no-evict hit %d of %d lookups, want the resident fraction 0.225", hits, 10*n)
	}
}

func TestApplyToTrace(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(500), 5)
	if err != nil {
		t.Fatal(err)
	}
	capacity := tr.TotalRawBytes() / 4
	adjusted, resident := ApplyToTrace(tr, capacity, 9)
	if resident == 0 {
		t.Fatal("nothing resident")
	}
	var cached, total int64
	count := 0
	for i := range adjusted.Records {
		if adjusted.Records[i].StageSizes[0] == 1 {
			cached += tr.Records[i].RawSize
			count++
		}
		total += tr.Records[i].RawSize
	}
	if count != resident {
		t.Fatalf("resident count %d vs marked %d", resident, count)
	}
	if cached > capacity {
		t.Fatalf("resident bytes %d exceed capacity %d", cached, capacity)
	}
	if float64(cached) < float64(capacity)*0.9 {
		t.Fatalf("cache underfilled: %d of %d", cached, capacity)
	}
	// Original untouched.
	if tr.Records[0].StageSizes[0] == 1 && tr.Records[0].RawSize > 1 {
		t.Fatal("ApplyToTrace mutated its input")
	}
	// Zero capacity: no residents.
	_, none := ApplyToTrace(tr, 0, 9)
	if none != 0 {
		t.Fatal("zero capacity marked residents")
	}
}

func TestFetchingCacheLive(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "c", N: 4, Seed: 2, MinDim: 32, MaxDim: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	defer srv.Close()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewNoEvict(10 << 20)
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFetchingCache(client, inner)
	defer fc.Close()

	// First raw fetch misses and populates; second hits with zero wire
	// bytes and identical content.
	first, err := storage.FetchOne(context.Background(), fc, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.WireBytes == 0 {
		t.Fatal("first fetch reported zero wire bytes")
	}
	second, err := storage.FetchOne(context.Background(), fc, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if second.WireBytes != 0 {
		t.Fatal("cache hit cost wire bytes")
	}
	if !second.Artifact.Equal(first.Artifact) {
		t.Fatal("cached artifact differs")
	}

	// Offloaded fetches bypass the cache.
	off, err := storage.FetchOne(context.Background(), fc, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if off.WireBytes == 0 || off.Artifact.Kind != pipeline.KindImage {
		t.Fatal("offloaded fetch served from cache")
	}
	if n := len(inner.data); n != 1 {
		t.Fatalf("cache holds %d objects, want the one raw fetch", n)
	}
}
