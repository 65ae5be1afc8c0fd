package cache

// Cross-job cache correctness over the real storage path: tenants of one
// share group dial the sharded tier with the group's dataset key as job ID
// (coordinated prep), fetch overlapping samples through TenantFetchers over
// one SharedArtifactCache, and must observe bit-identical artifacts whether
// served from the wire or from another tenant's cached fetch. Run under
// -race by the CI matrix.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

const shareKey = 77 // the share group's dataset key = every tenant's job ID

func launchTier(t testing.TB, n, shards int) *cluster.Cluster {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "crossjob", N: n, Seed: 5, MinDim: 48, MaxDim: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Launch(cluster.Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      pipeline.Standard(pipeline.StandardOptions{CropSize: 32, FlipP: 0.5}),
		CoresPerShard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func tenantOver(t testing.TB, c *cluster.Cluster, shared *SharedArtifactCache, name string) *TenantFetcher {
	t.Helper()
	sc, err := c.NewShardedClient(storage.ClientOptions{JobID: shareKey}, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := NewTenantFetcher(sc, shared, name, shareKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf
}

func encode(t testing.TB, res storage.FetchResult) []byte {
	t.Helper()
	enc, err := res.Artifact.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// Two tenants with overlapping sample sets observe bit-identical artifacts —
// raw and augmented — regardless of which tenant fetched first, and the
// second tenant's overlap is served without wire traffic.
func TestCrossJobArtifactsBitIdentical(t *testing.T) {
	const n = 16
	tier := launchTier(t, n, 2)
	shared, err := NewShared(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	a := tenantOver(t, tier, shared, "tenant-a")
	b := tenantOver(t, tier, shared, "tenant-b")
	ctx := context.Background()

	// Tenant a fetches everything first: raw for even samples, an offloaded
	// 3-op prefix (includes the random crop + flip) for odd ones.
	split := func(s uint32) int {
		if s%2 == 0 {
			return 0
		}
		return 3
	}
	wireA := make([][]byte, n)
	var wireBytes int64
	for s := uint32(0); s < n; s++ {
		res, err := storage.FetchOne(ctx, a, s, split(s), 1)
		if err != nil {
			t.Fatal(err)
		}
		wireA[s] = encode(t, res)
		wireBytes += int64(len(wireA[s]))
		// Cached image entries shrink with the wire form: what is retained is
		// the packed encoding, under the artifact's unpacked size.
		if split(s) == 3 && len(wireA[s]) >= res.Artifact.WireSize() {
			t.Fatalf("sample %d: image artifact encodes to %d bytes, unpacked %d", s, len(wireA[s]), res.Artifact.WireSize())
		}
	}
	// The cache holds exactly those encodings: charged by len, no slack
	// capacity behind them.
	if st := shared.Snapshot().Tenants["tenant-a"]; st.BytesInserted != wireBytes {
		t.Fatalf("tenant a inserted %d bytes, its artifacts encode to %d", st.BytesInserted, wireBytes)
	}
	if data, ok := shared.get("probe", artifactKey{Dataset: shareKey, Sample: 3, Cut: 3, Epoch: 1}); !ok || cap(data) != len(data) || !bytes.Equal(data, wireA[3]) {
		t.Fatalf("cached entry for sample 3: present %v, len %d, cap %d, want the %d-byte encoding exactly", ok, len(data), cap(data), len(wireA[3]))
	}

	// Tenant b overlaps on every sample; all fetches must hit.
	for s := uint32(0); s < n; s++ {
		res, err := storage.FetchOne(ctx, b, s, split(s), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, res), wireA[s]) {
			t.Fatalf("sample %d split %d: tenant b's artifact differs from tenant a's", s, split(s))
		}
		if res.WireBytes != 0 {
			t.Fatalf("sample %d served over the wire despite the cache", s)
		}
	}
	if st := shared.Snapshot().Tenants["tenant-b"]; st.Hits != n || st.Misses != 0 {
		t.Fatalf("tenant b stats %+v, want %d pure hits", st, n)
	}

	// Bit-identity holds against the tier itself, not just the cache: a
	// fresh fetch from the wire for an augmented sample matches the cached
	// encoding (both tenants authenticate as the share group).
	fresh, err := tier.NewShardedClient(storage.ClientOptions{JobID: shareKey}, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	res, err := storage.FetchOne(ctx, fresh, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, res), wireA[3]) {
		t.Fatal("wire artifact diverges from the cached one: share-group seeding broken")
	}

	// A different job ID yields a DIFFERENT augmented artifact — the reason
	// the coordinated-prep contract exists at all.
	other, err := tier.NewShardedClient(storage.ClientOptions{JobID: shareKey + 1}, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	res, err = storage.FetchOne(ctx, other, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, res), wireA[3]) {
		t.Fatal("foreign job ID reproduced the share group's augmentation")
	}
}

// Eviction driven by one tenant's churn never corrupts artifacts another
// tenant already decoded, and re-fetches after eviction read back identical
// bytes. Concurrent tenants hammer the same small cache under -race.
func TestCrossJobEvictionIsolation(t *testing.T) {
	const n = 24
	tier := launchTier(t, n, 1)
	// Tiny cache: a few KiB forces constant eviction under 32×32 tensors.
	shared, err := NewShared(24 << 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference encodings straight from the tier.
	ref, err := tier.NewShardedClient(storage.ClientOptions{JobID: shareKey}, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([][]byte, n)
	for s := uint32(0); s < n; s++ {
		res, err := storage.FetchOne(ctx, ref, s, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = encode(t, res)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tf := tenantOver(t, tier, shared, "tenant-"+string(rune('a'+w)))
		wg.Add(1)
		go func(tf *TenantFetcher) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for s := uint32(0); s < n; s++ {
					res, err := storage.FetchOne(ctx, tf, s, 3, 1)
					if err != nil {
						t.Errorf("sample %d: %v", s, err)
						return
					}
					got := res.Artifact
					enc, err := got.AppendEncode(nil)
					if err != nil {
						t.Errorf("sample %d: %v", s, err)
						return
					}
					if !bytes.Equal(enc, want[s]) {
						t.Errorf("sample %d corrupted under eviction churn", s)
						return
					}
				}
			}
		}(tf)
	}
	wg.Wait()

	snap := shared.Snapshot()
	if snap.Evictions == 0 {
		t.Fatal("cache never evicted — capacity too generous for the test to mean anything")
	}
	if snap.Bytes > snap.Capacity {
		t.Fatalf("resident bytes %d exceed capacity %d", snap.Bytes, snap.Capacity)
	}
}
