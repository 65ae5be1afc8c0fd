package cache

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/storage"
)

func TestNewSharedValidation(t *testing.T) {
	if _, err := NewShared(0); err == nil {
		t.Fatal("accepted zero capacity")
	}
	if _, err := NewShared(-10); err == nil {
		t.Fatal("accepted negative capacity")
	}
}

func TestSharedGetPutAccounting(t *testing.T) {
	c, err := NewShared(1000)
	if err != nil {
		t.Fatal(err)
	}
	key := artifactKey{Dataset: 1, Sample: 5, Cut: 2, Epoch: 3}
	if _, ok := c.get("a", key); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", key, bytes.Repeat([]byte{7}, 100))
	// Tenant b hits what tenant a inserted — the cross-job point.
	data, ok := c.get("b", key)
	if !ok || len(data) != 100 || data[0] != 7 {
		t.Fatal("tenant b missed tenant a's artifact")
	}
	a, b := c.Snapshot().Tenants["a"], c.Snapshot().Tenants["b"]
	if a.Inserts != 1 || a.BytesInserted != 100 || a.Misses != 1 {
		t.Fatalf("tenant a stats %+v", a)
	}
	if b.Hits != 1 || b.BytesSaved != 100 || b.Misses != 0 {
		t.Fatalf("tenant b stats %+v", b)
	}
	snap := c.Snapshot()
	if snap.Items != 1 || snap.Bytes != 100 || snap.Hits != 1 || snap.Misses != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if got := snap.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v", got)
	}
	if names := snap.TenantNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("tenant names %v", names)
	}
}

func TestSharedFirstWriterWins(t *testing.T) {
	c, _ := NewShared(1000)
	key := artifactKey{Dataset: 1, Sample: 1}
	c.put("a", key, []byte{1, 1, 1})
	c.put("b", key, []byte{2, 2, 2}) // same key: refreshed, not replaced
	data, ok := c.get("a", key)
	if !ok || data[0] != 1 {
		t.Fatal("duplicate insert replaced the original payload")
	}
	if s := c.Snapshot().Tenants["b"]; s.Inserts != 0 {
		t.Fatalf("duplicate insert accounted: %+v", s)
	}
	if n := c.Snapshot().Items; n != 1 {
		t.Fatalf("%d items after duplicate insert", n)
	}
}

func TestSharedEvictionKeepsReadersValid(t *testing.T) {
	c, _ := NewShared(250)
	k1 := artifactKey{Dataset: 1, Sample: 1}
	k2 := artifactKey{Dataset: 1, Sample: 2}
	k3 := artifactKey{Dataset: 1, Sample: 3}
	c.put("a", k1, bytes.Repeat([]byte{1}, 100))
	c.put("a", k2, bytes.Repeat([]byte{2}, 100))
	// Tenant b holds a reference to k1's payload across tenant a's churn.
	held, ok := c.get("b", k1)
	if !ok {
		t.Fatal("missed k1")
	}
	c.put("a", k3, bytes.Repeat([]byte{3}, 100)) // evicts k2 (k1 is recent)
	if _, ok := c.get("a", k2); ok {
		t.Fatal("LRU kept the least-recent entry")
	}
	if snap := c.Snapshot(); snap.Evictions != 1 || snap.Bytes > 250 {
		t.Fatalf("snapshot after eviction %+v", snap)
	}
	// Evict k1 too; the held slice must still read back intact.
	c.put("a", artifactKey{Dataset: 1, Sample: 4}, bytes.Repeat([]byte{4}, 100))
	c.put("a", artifactKey{Dataset: 1, Sample: 5}, bytes.Repeat([]byte{5}, 100))
	for i, v := range held {
		if v != 1 {
			t.Fatalf("held[%d] = %d after eviction", i, v)
		}
	}
}

func TestSharedOversizedNotCached(t *testing.T) {
	c, _ := NewShared(50)
	c.put("a", artifactKey{Sample: 1}, make([]byte, 100))
	if c.Snapshot().Items != 0 {
		t.Fatal("cached an object larger than capacity")
	}
}

func TestSharedConcurrentTenants(t *testing.T) {
	c, _ := NewShared(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w)
			for i := 0; i < 200; i++ {
				key := artifactKey{Dataset: 1, Sample: uint32(i % 50), Cut: 2}
				if data, ok := c.get(tenant, key); ok {
					if len(data) != 64 {
						t.Errorf("corrupt payload: %d bytes", len(data))
						return
					}
					continue
				}
				c.put(tenant, key, bytes.Repeat([]byte{byte(i % 50)}, 64))
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Items == 0 || snap.Items > 50 {
		t.Fatalf("%d items for 50 distinct keys", snap.Items)
	}
	// Every cached payload carries the value its key demands.
	for i := 0; i < 50; i++ {
		key := artifactKey{Dataset: 1, Sample: uint32(i), Cut: 2}
		if data, ok := c.get("check", key); ok && data[0] != byte(i) {
			t.Fatalf("key %v holds payload %d", key, data[0])
		}
	}
}

// fakeFetcher serves deterministic raw artifacts and counts wire fetches.
type fakeFetcher struct {
	n       int
	fetches int
	closed  bool
	// lastCtx is the context the latest fetch arrived with: what a wrapper
	// must pass down untouched for the plan-version stamp to reach the wire.
	lastCtx context.Context
}

func (f *fakeFetcher) payload(sample uint32, split int, epoch uint64) []byte {
	return []byte(fmt.Sprintf("s%d/c%d/e%d", sample, split, epoch))
}

func (f *fakeFetcher) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	f.fetches++
	f.lastCtx = ctx
	return storage.FetchResult{
		Sample:    sample,
		Artifact:  pipeline.RawArtifact(f.payload(sample, split, epoch)),
		Split:     split,
		WireBytes: 64,
	}, nil
}

func (f *fakeFetcher) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	out := make([]storage.FetchResult, len(samples))
	for i := range samples {
		res, err := f.Fetch(ctx, samples[i], splits[i], epoch)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func (f *fakeFetcher) Tier() storage.Tier { return storage.Tier{Samples: f.n} }
func (f *fakeFetcher) Close() error       { f.closed = true; return nil }

func TestTenantFetcherValidation(t *testing.T) {
	shared, _ := NewShared(1 << 20)
	inner := &fakeFetcher{n: 10}
	if _, err := NewTenantFetcher(nil, shared, "a", 1); err == nil {
		t.Fatal("accepted nil client")
	}
	if _, err := NewTenantFetcher(inner, nil, "a", 1); err == nil {
		t.Fatal("accepted nil cache")
	}
	if _, err := NewTenantFetcher(inner, shared, "", 1); err == nil {
		t.Fatal("accepted empty tenant name")
	}
}

func TestTenantFetcherServesPeersFromCache(t *testing.T) {
	shared, _ := NewShared(1 << 20)
	innerA := &fakeFetcher{n: 10}
	innerB := &fakeFetcher{n: 10}
	a, err := NewTenantFetcher(innerA, shared, "a", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTenantFetcher(innerB, shared, "b", 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resA, err := storage.FetchOne(ctx, a, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := storage.FetchOne(ctx, b, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if innerB.fetches != 0 {
		t.Fatalf("tenant b went to the wire %d times for a cached artifact", innerB.fetches)
	}
	if resB.WireBytes != 0 {
		t.Fatalf("cache hit reported %d wire bytes", resB.WireBytes)
	}
	if !resA.Artifact.Equal(resB.Artifact) {
		t.Fatal("cached artifact differs from the fetched one")
	}
	// The hit decodes into fresh memory — mutating one never touches the other.
	resB.Artifact.Raw[0] ^= 0xff
	if resA.Artifact.Raw[0] == resB.Artifact.Raw[0] {
		t.Fatal("hit aliases the original artifact")
	}
	if s := b.shared.Snapshot().Tenants[b.tenant]; s.Hits != 1 || s.BytesSaved == 0 {
		t.Fatalf("tenant b stats %+v", s)
	}
}

func TestTenantFetcherEpochKeying(t *testing.T) {
	shared, _ := NewShared(1 << 20)
	inner := &fakeFetcher{n: 10}
	f, _ := NewTenantFetcher(inner, shared, "a", 1)
	ctx := context.Background()

	// Raw (cut-0) artifacts are epoch-invariant: epoch 2 hits epoch 1's entry.
	if _, err := storage.FetchOne(ctx, f, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.FetchOne(ctx, f, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if inner.fetches != 1 {
		t.Fatalf("raw refetched across epochs: %d wire fetches", inner.fetches)
	}

	// Augmented (cut>0) artifacts embed per-epoch randomness: epoch 2 misses.
	if _, err := storage.FetchOne(ctx, f, 1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.FetchOne(ctx, f, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if inner.fetches != 3 {
		t.Fatalf("augmented artifact shared across epochs: %d wire fetches", inner.fetches)
	}
}

func TestTenantFetcherBatchPartialHits(t *testing.T) {
	shared, _ := NewShared(1 << 20)
	innerA := &fakeFetcher{n: 10}
	innerB := &fakeFetcher{n: 10}
	a, _ := NewTenantFetcher(innerA, shared, "a", 9)
	b, _ := NewTenantFetcher(innerB, shared, "b", 9)
	ctx := context.Background()

	// Tenant a warms samples 2 and 4.
	if _, err := a.FetchBatch(ctx, []uint32{2, 4}, []int{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Tenant b asks for 1..5; only the cold ones may reach the wire, and the
	// results must come back in request order.
	samples := []uint32{1, 2, 3, 4, 5}
	splits := []int{1, 1, 1, 1, 1}
	out, err := b.FetchBatch(ctx, samples, splits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if innerB.fetches != 3 {
		t.Fatalf("%d wire fetches, want 3 misses", innerB.fetches)
	}
	for i, res := range out {
		if res.Sample != samples[i] {
			t.Fatalf("slot %d holds sample %d, want %d", i, res.Sample, samples[i])
		}
		want := innerB.payload(samples[i], 1, 1)
		if !bytes.Equal(res.Artifact.Raw, want) {
			t.Fatalf("sample %d payload %q, want %q", res.Sample, res.Artifact.Raw, want)
		}
	}
	if s := b.shared.Snapshot().Tenants[b.tenant]; s.Hits != 2 || s.Misses != 3 {
		t.Fatalf("tenant b stats %+v", s)
	}
	if len(samples) != 5 || len(splits) != 5 {
		t.Fatal("inputs mutated")
	}
	if _, err := b.FetchBatch(ctx, samples, splits[:2], 1); err == nil {
		t.Fatal("accepted mismatched samples/splits")
	}
}

func TestTenantFetcherPassthroughs(t *testing.T) {
	shared, _ := NewShared(1 << 20)
	inner := &fakeFetcher{n: 23}
	f, _ := NewTenantFetcher(inner, shared, "a", 1)
	if f.Tier().Samples != 23 {
		t.Fatalf("Tier %+v", f.Tier())
	}
	type stamp struct{}
	ctx := context.WithValue(context.Background(), stamp{}, 9)
	if _, err := storage.FetchOne(ctx, f, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if inner.fetches != 1 || inner.lastCtx.Value(stamp{}) != 9 {
		t.Fatalf("context not passed down (%d fetches)", inner.fetches)
	}
	if err := f.Close(); err != nil || !inner.closed {
		t.Fatal("Close not forwarded")
	}
}
