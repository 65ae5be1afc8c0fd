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
	if _, err := NewLRU(0); err == nil {
		t.Fatal("LRU accepted zero capacity")
	}
	if _, err := NewNoEvict(-1); err == nil {
		t.Fatal("no-evict accepted negative capacity")
	}
}

func TestLRUBasics(t *testing.T) {
	c, err := NewLRU(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, bytes.Repeat([]byte{1}, 40))
	c.Put(2, bytes.Repeat([]byte{2}, 40))
	if d, ok := c.Get(1); !ok || d[0] != 1 {
		t.Fatal("miss after put")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Items != 2 || s.Bytes != 80 || s.Capacity != 100 {
		t.Fatalf("stats %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v", got)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c, _ := NewLRU(100)
	c.Put(1, bytes.Repeat([]byte{1}, 40))
	c.Put(2, bytes.Repeat([]byte{2}, 40))
	c.Get(1) // 1 is now most recent
	c.Put(3, bytes.Repeat([]byte{3}, 40))
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU kept the least-recent entry")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("LRU evicted the most-recent entry")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d", s.Evictions)
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c, _ := NewLRU(100)
	c.Put(1, bytes.Repeat([]byte{1}, 40))
	c.Put(1, bytes.Repeat([]byte{9}, 60))
	if s := c.Stats(); s.Bytes != 60 || s.Items != 1 {
		t.Fatalf("stats after update: %+v", s)
	}
	d, ok := c.Get(1)
	if !ok || len(d) != 60 || d[0] != 9 {
		t.Fatal("update lost data")
	}
}

func TestOversizedObjectNotCached(t *testing.T) {
	for _, c := range mkCaches(t, 50) {
		c.Put(1, make([]byte, 100))
		if _, ok := c.Get(1); ok {
			t.Fatal("cached an object larger than capacity")
		}
		if c.Stats().Bytes != 0 {
			t.Fatal("oversized object consumed bytes")
		}
	}
}

func mkCaches(t testing.TB, capacity int64) []Cache {
	t.Helper()
	l, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewNoEvict(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return []Cache{l, u}
}

// Property: both caches never exceed capacity and Get returns exactly what
// Put stored.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 1 << 12
		l, err := NewLRU(capacity)
		if err != nil {
			return false
		}
		u, err := NewNoEvict(capacity)
		if err != nil {
			return false
		}
		for _, c := range []Cache{l, u} {
			for _, op := range ops {
				id := uint32(op % 64)
				size := int(op%800) + 1
				data := bytes.Repeat([]byte{byte(id)}, size)
				c.Put(id, data)
				if got, ok := c.Get(id); ok {
					if len(got) == 0 || got[0] != byte(id) {
						return false
					}
				}
				if c.Stats().Bytes > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNoEvictBeatsLRUOnCyclicScan demonstrates the DL-cache insight: under
// repeated full scans larger than the cache, LRU gets ~zero hits while a
// frozen resident set keeps a stable capacity-fraction hit rate.
func TestNoEvictBeatsLRUOnCyclicScan(t *testing.T) {
	const n, objSize, capacity = 200, 10, 500 // cache holds 1/4 of the set
	l, _ := NewLRU(capacity)
	u, _ := NewNoEvict(capacity)
	scan := func(c Cache) float64 {
		obj := bytes.Repeat([]byte{7}, objSize)
		for epoch := 0; epoch < 10; epoch++ {
			for id := uint32(0); id < n; id++ {
				if _, ok := c.Get(id); !ok {
					c.Put(id, obj)
				}
			}
		}
		return c.Stats().HitRate()
	}
	lru := scan(l)
	noEvict := scan(u)
	if lru > 0.05 {
		t.Fatalf("LRU hit rate %.3f on cyclic scan, expected ~0", lru)
	}
	// 9 of 10 epochs hit the 25% resident set: ~0.225 overall.
	if noEvict < 0.15 {
		t.Fatalf("no-evict hit rate %.3f, expected near resident fraction ~0.22", noEvict)
	}
	if noEvict <= lru {
		t.Fatalf("no-evict (%.3f) not better than LRU (%.3f)", noEvict, lru)
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
	inner, err := NewLRU(10 << 20)
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
	s := fc.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("cache stats %+v", s)
	}
}
