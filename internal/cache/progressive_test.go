package cache

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// progressiveContainer builds one synthetic full-scan progressive container.
func progressiveContainer(t testing.TB, seed uint64) []byte {
	t.Helper()
	im, err := imaging.Synthesize(imaging.SynthParams{W: 64, H: 48, Detail: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	data, err := imaging.EncodeProgressive(im, 80, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The regression at the heart of the bug sweep: a fidelity-carrying packed
// directive must never collapse onto the full-fidelity key. The old code cast
// the packed int straight to uint8, so PackDirective(0, 2) == 512 keyed as
// cut 0 / full fidelity — poisoning full readers with truncated bytes.
func TestTenantKeyCarriesFidelity(t *testing.T) {
	tf := &TenantFetcher{dataset: 7}
	full := tf.key(3, 0, 5)
	reduced := tf.key(3, storage.PackDirective(0, 2), 5)
	if full == reduced {
		t.Fatal("packed fidelity directive collided with the full-fidelity key")
	}
	if reduced.Cut != 0 || reduced.Fidelity != 2 {
		t.Fatalf("reduced key = %+v", reduced)
	}
	if full.Fidelity != 0 {
		t.Fatalf("full key = %+v", full)
	}
	// Raw keys stay epoch-invariant at every fidelity.
	if tf.key(3, storage.PackDirective(0, 2), 9) != reduced {
		t.Fatal("raw fidelity key depends on epoch")
	}
	// Offloaded cuts keep their epoch scoping under packing.
	if tf.key(3, storage.PackDirective(2, 1), 5).Epoch != 5 {
		t.Fatal("offloaded packed key lost epoch")
	}
}

// progFetcher serves one progressive container, honoring fidelity directives
// by slicing exactly like the storage server.
type progFetcher struct {
	body    []byte
	fetches int
	rows    int // directives carrying storage.Rows
}

func (p *progFetcher) Fetch(_ context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	p.fetches++
	if split&storage.Rows != 0 {
		p.rows++
	}
	cut, fid := storage.UnpackDirective(split)
	raw := p.body
	if cut == 0 && fid > 0 {
		if n, ok := imaging.FidelityPrefixSize(p.body, fid); ok {
			raw = p.body[:n]
		}
	}
	return storage.FetchResult{
		Sample:    sample,
		Artifact:  pipeline.RawArtifact(raw),
		Split:     cut,
		Fidelity:  fid,
		WireBytes: len(raw) + 1,
	}, nil
}

func (p *progFetcher) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	out := make([]storage.FetchResult, len(samples))
	for i := range samples {
		res, err := p.Fetch(ctx, samples[i], splits[i], epoch)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func (p *progFetcher) NumSamples() int { return 1 }
func (p *progFetcher) Close() error    { return nil }

// The per-job raw cache must serve reduced-fidelity directives from a cached
// full object at zero wire bytes, without ever inserting truncated bytes.
func TestFetchingCacheServesTruncatedPrefix(t *testing.T) {
	body := progressiveContainer(t, 3)
	_, _, _, scans, _, err := imaging.ProgressiveInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := NewNoEvict(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// nil client: every fetch below must be a cache hit or it panics.
	fc := &FetchingCache{cache: lru}

	// Seed the cache the way a full fetch would.
	lru.Put(0, body)

	fid := storage.PackDirective(0, 1)
	res, err := storage.FetchOne(context.Background(), fc, 0, fid, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := imaging.SlicePrefix(body, scans-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifact.Raw, want) {
		t.Fatal("cached truncation differs from server-side SlicePrefix")
	}
	if res.WireBytes != 0 || res.Fidelity != 1 {
		t.Fatalf("hit result %+v", res)
	}
	// Batch path serves the same bytes.
	batch, err := fc.FetchBatch(context.Background(), []uint32{0}, []int{fid}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch[0].Artifact.Raw, want) {
		t.Fatal("batch truncation differs from SlicePrefix")
	}
	// The full object is still intact in the cache.
	full, err := storage.FetchOne(context.Background(), fc, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Artifact.Raw, body) {
		t.Fatal("full-fidelity read no longer sees the full container")
	}
}

// Both caching layers forward a raw miss without storage.Rows, so that they
// keep the whole object, and answer a later request for rows from it.
func TestCachesForwardRawMissesWhole(t *testing.T) {
	body := progressiveContainer(t, 5)
	local, err := NewNoEvict(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewShared(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	fcInner, tfInner := &progFetcher{body: body}, &progFetcher{body: body}
	tf, err := NewTenantFetcher(tfInner, shared, "a", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		f     storage.Fetcher
		inner *progFetcher
	}{{"FetchingCache", NewFetchingCache(fcInner, local), fcInner}, {"TenantFetcher", tf, tfInner}} {
		for range 2 {
			res, err := storage.FetchOne(context.Background(), c.f, 0, storage.Rows, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Artifact.Raw, body) {
				t.Fatalf("%s: a request for rows got %d bytes, not the whole object", c.name, len(res.Artifact.Raw))
			}
		}
		if c.inner.fetches != 1 || c.inner.rows != 0 {
			t.Fatalf("%s: %d fetches went down, %d asking for rows; want 1 and 0", c.name, c.inner.fetches, c.inner.rows)
		}
	}
}
