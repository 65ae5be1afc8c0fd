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

// encodedRaw wraps container bytes in the raw-artifact encoding the shared
// cache stores (kind byte + payload).
func encodedRaw(body []byte) []byte {
	return append([]byte{byte(pipeline.KindRaw)}, body...)
}

func TestTruncateToFidelity(t *testing.T) {
	body := progressiveContainer(t, 1)
	enc := encodedRaw(body)
	_, _, _, scans, _, err := imaging.ProgressiveInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	for drop := 1; drop < scans; drop++ {
		got, ok := truncateToFidelity(enc, uint8(drop))
		if !ok {
			t.Fatalf("drop %d: not truncatable", drop)
		}
		want, err := imaging.SlicePrefix(body, scans-drop)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[1:], want) || got[0] != byte(pipeline.KindRaw) {
			t.Fatalf("drop %d: truncated bytes differ from SlicePrefix", drop)
		}
	}
	// Over-deep drops clamp to the base scan, same as the server.
	deep, ok := truncateToFidelity(enc, 200)
	if !ok {
		t.Fatal("over-deep drop not truncatable")
	}
	base, err := imaging.SlicePrefix(body, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deep[1:], base) {
		t.Fatal("over-deep drop did not clamp to base scan")
	}
	if _, ok := truncateToFidelity(enc, 0); ok {
		t.Fatal("drop 0 should refuse (caller uses the full entry)")
	}
	if _, ok := truncateToFidelity(encodedRaw([]byte("not progressive")), 1); ok {
		t.Fatal("non-progressive payload truncated")
	}
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

// A deep cached entry must satisfy a shallower request bit-identically to the
// prefix the storage server would have sliced, and the served length — not
// the full entry length — is what lands in BytesSaved.
func TestSharedCachePrefixAwareHit(t *testing.T) {
	body := progressiveContainer(t, 2)
	_, _, _, scans, _, err := imaging.ProgressiveInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewShared(1 << 20)
	fullKey := ArtifactKey{Dataset: 42, Sample: 0, Cut: 0, Fidelity: 0}
	c.Put("a", fullKey, encodedRaw(body))

	req := fullKey
	req.Fidelity = 2
	got, ok := c.Get("b", req)
	if !ok {
		t.Fatal("deep entry did not satisfy shallow request")
	}
	want, err := imaging.SlicePrefix(body, scans-2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[1:], want) {
		t.Fatal("prefix-aware hit differs from server-side SlicePrefix")
	}
	if s := c.TenantStats("b"); s.Hits != 1 || s.BytesSaved != int64(len(got)) {
		t.Fatalf("tenant b stats %+v (served %d bytes)", s, len(got))
	}
	// The reverse direction must miss: a shallow entry cannot invent scans
	// for a deeper (higher-fidelity) request.
	d, _ := NewShared(1 << 20)
	shallowKey := fullKey
	shallowKey.Fidelity = 2
	prefix, _ := truncateToFidelity(encodedRaw(body), 2)
	d.Put("a", shallowKey, prefix)
	if _, ok := d.Get("a", fullKey); ok {
		t.Fatal("shallow entry served a full-fidelity request")
	}
	if _, ok := d.Get("a", ArtifactKey{Dataset: 42, Fidelity: 1}); ok {
		t.Fatal("drop-2 entry served a drop-1 request")
	}
	// Equal or deeper requests are served (exact, then truncated further).
	if _, ok := d.Get("a", shallowKey); !ok {
		t.Fatal("exact reduced-fidelity key missed")
	}
	if _, ok := d.Get("a", ArtifactKey{Dataset: 42, Fidelity: 3}); !ok {
		t.Fatal("drop-2 entry did not serve a drop-3 request")
	}
}

// progFetcher serves one progressive container, honoring fidelity directives
// by slicing exactly like the storage server.
type progFetcher struct {
	body    []byte
	fetches int
}

func (p *progFetcher) Fetch(_ context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	p.fetches++
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
	lru, err := NewLRU(1 << 20)
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

// TenantFetcher end to end: the first tenant pulls the full object; a second
// tenant's reduced-fidelity fetch is served by truncating the shared entry
// instead of going to the wire.
func TestTenantFetcherProgressivePrefixHit(t *testing.T) {
	body := progressiveContainer(t, 4)
	_, _, _, scans, _, err := imaging.ProgressiveInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := NewShared(1 << 20)
	innerA := &progFetcher{body: body}
	innerB := &progFetcher{body: body}
	a, err := NewTenantFetcher(innerA, shared, "a", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTenantFetcher(innerB, shared, "b", 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := storage.FetchOne(ctx, a, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := storage.FetchOne(ctx, b, 0, storage.PackDirective(0, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if innerB.fetches != 0 {
		t.Fatalf("reduced-fidelity fetch went to the wire %d times despite a deeper cached entry", innerB.fetches)
	}
	want, err := imaging.SlicePrefix(body, scans-2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifact.Raw, want) {
		t.Fatal("tenant prefix hit differs from server-side SlicePrefix")
	}
	if res.Fidelity != 2 || res.Split != 0 {
		t.Fatalf("hit result split=%d fidelity=%d", res.Split, res.Fidelity)
	}
}
