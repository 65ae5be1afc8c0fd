package storage

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// progressiveStore materializes n synthetic images as progressive containers
// with the full scan count.
func progressiveStore(t testing.TB, n int) *Store {
	t.Helper()
	blobs := make([][]byte, n)
	for i := range blobs {
		im, err := imaging.Synthesize(imaging.SynthParams{
			W: 48 + 8*i, H: 40 + 8*i, Detail: 0.5, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		blobs[i], err = imaging.EncodeProgressive(im, 80, imaging.MaxScans)
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewStore("prog-set", blobs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPackDirective(t *testing.T) {
	for _, c := range []struct{ split, fid int }{{0, 0}, {3, 0}, {0, 2}, {5, 3}, {255, 255}} {
		d := PackDirective(c.split, c.fid)
		s, f := UnpackDirective(d)
		if s != c.split || f != c.fid {
			t.Fatalf("directive (%d,%d) -> %d -> (%d,%d)", c.split, c.fid, d, s, f)
		}
	}
	// A plain split value is its own directive: legacy call sites that never
	// pack stay correct.
	if PackDirective(4, 0) != 4 {
		t.Fatal("PackDirective(4, 0) != 4")
	}
	// Rows rides beside the packed pair and unpacks to nothing.
	if s, f := UnpackDirective(PackDirective(5, 3) | Rows); s != 5 || f != 3 {
		t.Fatalf("PackDirective(5, 3)|Rows unpacks to (%d,%d)", s, f)
	}
}

// The server must answer a reduced-fidelity raw fetch with a bit-identical
// prefix of the stored container — sliced, never re-encoded — and it must do
// so with zero executor cores, since slicing burns no preprocessing CPU.
func TestServerServesProgressivePrefix(t *testing.T) {
	st := progressiveStore(t, 3)
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	c := dial()

	stored, err := st.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, scans, _, err := imaging.ProgressiveInfo(stored)
	if err != nil {
		t.Fatal(err)
	}

	// Full fidelity ships the whole container and stays off the fast path.
	full, err := FetchOne(context.Background(), c, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Artifact.Kind != pipeline.KindRaw || !bytes.Equal(full.Artifact.Raw, stored) {
		t.Fatal("full-fidelity fetch did not ship the stored container")
	}
	if srv.Counters().PrefixServed.Load() != 0 {
		t.Fatal("full-fidelity fetch hit the prefix path")
	}

	// One dropped scan serves exactly SlicePrefix(stored, scans-1).
	drop := 1
	want, err := imaging.SlicePrefix(stored, scans-drop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FetchOne(context.Background(), c, 1, PackDirective(0, drop), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity != drop || res.Artifact.Kind != pipeline.KindRaw {
		t.Fatalf("result fidelity=%d kind=%v", res.Fidelity, res.Artifact.Kind)
	}
	if !bytes.Equal(res.Artifact.Raw, want) {
		t.Fatal("prefix-served bytes differ from SlicePrefix of the stored container")
	}
	if len(res.Artifact.Raw) >= len(stored) {
		t.Fatal("prefix serve saved no bytes")
	}
	if got := srv.Counters().PrefixServed.Load(); got != 1 {
		t.Fatalf("PrefixServed = %d, want 1", got)
	}
	if saved := srv.Counters().PrefixBytesSaved.Load(); saved != uint64(len(stored)-len(want)) {
		t.Fatalf("PrefixBytesSaved = %d, want %d", saved, len(stored)-len(want))
	}

	// The prefix still decodes to a valid lower-fidelity image.
	im, k, err := imaging.DecodeProgressive(res.Artifact.Raw)
	if err != nil || k != scans-drop {
		t.Fatalf("served prefix decodes to %d scans, err %v", k, err)
	}
	im.Release()

	// An excessive drop clamps to the base scan rather than failing.
	base, err := imaging.SlicePrefix(stored, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err = FetchOne(context.Background(), c, 1, PackDirective(0, 200), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifact.Raw, base) {
		t.Fatal("over-deep drop did not clamp to the base scan")
	}
}

// A reduced-fidelity fetch of a non-progressive object degrades gracefully:
// the server ships the full stored bytes instead of failing the request.
func TestFidelityOnLegacyObjectServesFull(t *testing.T) {
	st := testStore(t, 2) // plain SJPG objects
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	c := dial()
	stored, err := st.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FetchOne(context.Background(), c, 0, PackDirective(0, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifact.Raw, stored) {
		t.Fatal("legacy object not served in full under a fidelity directive")
	}
	if srv.Counters().PrefixServed.Load() != 0 {
		t.Fatal("legacy object counted as prefix-served")
	}
}

// Batched fetches carry per-item fidelity through the wide wire layout and
// the same server fast path.
func TestFetchBatchProgressivePrefix(t *testing.T) {
	st := progressiveStore(t, 4)
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	c := dial()

	samples := []uint32{0, 1, 2, 3}
	splits := []int{0, PackDirective(0, 1), 0, PackDirective(0, 2)}
	res, err := c.FetchBatch(context.Background(), samples, splits, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		stored, err := st.Get(samples[i])
		if err != nil {
			t.Fatal(err)
		}
		_, fid := UnpackDirective(splits[i])
		want := stored
		if fid > 0 {
			_, _, _, scans, _, err := imaging.ProgressiveInfo(stored)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = imaging.SlicePrefix(stored, scans-fid); err != nil {
				t.Fatal(err)
			}
		}
		if r.Fidelity != fid || !bytes.Equal(r.Artifact.Raw, want) {
			t.Fatalf("item %d (fid %d): served %d bytes, want %d", i, fid, len(r.Artifact.Raw), len(want))
		}
	}
	if got := srv.Counters().PrefixServed.Load(); got != 2 {
		t.Fatalf("PrefixServed = %d, want 2", got)
	}
}

// Out-of-range packed directives are rejected client-side before any frame
// is sent.
func TestFidelityDirectiveValidation(t *testing.T) {
	st := progressiveStore(t, 1)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	c := dial()
	if _, err := FetchOne(context.Background(), c, 0, PackDirective(0, 300), 1); err == nil {
		t.Fatal("accepted fidelity 300")
	}
	if _, err := c.FetchBatch(context.Background(), []uint32{0}, []int{PackDirective(0, 300)}, 1); err == nil {
		t.Fatal("batch accepted fidelity 300")
	}
}

// A raw fetch under Rows ships imaging.Slice of the stored object to the
// crop the server draws from (job, epoch, sample) — with zero executor cores
// — which the client finishes to the tensor of the prefix it was cut from.
// A fetch that withholds bytes counts in PrefixServed and PrefixBytesSaved.
func TestRowsFetchShipsTheCropsBands(t *testing.T) {
	st := progressiveStore(t, 4)
	p := pipeline.DefaultStandard()
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 0})
	c := dial()
	var served, saved uint64
	for epoch := uint64(1); epoch <= 6; epoch++ {
		for sample := uint32(0); sample < 4; sample++ {
			fid := int(epoch % 3)
			res, err := FetchOne(context.Background(), c, sample, PackDirective(0, fid)|Rows, epoch)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := st.Get(sample)
			if err != nil {
				t.Fatal(err)
			}
			seed := pipeline.Seed{Job: 42, Epoch: epoch, Sample: uint64(sample)}
			rect, _ := p.CropRect(stored, seed)
			want := make([]byte, len(stored))
			want = want[:imaging.Slice(want, stored, fid, rect)]
			if res.Fidelity != fid || res.Split != 0 || !bytes.Equal(res.Artifact.Raw, want) {
				t.Fatalf("sample %d epoch %d: fidelity %d split %d, %d bytes; want fidelity %d, the %d bytes imaging.Slice cuts",
					sample, epoch, res.Fidelity, res.Split, len(res.Artifact.Raw), fid, len(want))
			}
			if len(want) < len(stored) {
				served, saved = served+1, saved+uint64(len(stored)-len(want))
			}
			prefix, err := imaging.SlicePrefix(stored, imaging.MaxScans-fid)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Run(res.Artifact.Raw, seed)
			if err != nil {
				t.Fatal(err)
			}
			local, err := p.Run(prefix, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(local) {
				t.Fatalf("sample %d epoch %d: the fetched rows finish to another tensor", sample, epoch)
			}
			got.Release()
			local.Release()
		}
	}
	if got := srv.Counters().PrefixServed.Load(); got != served || served == 0 {
		t.Fatalf("PrefixServed = %d, want %d (> 0)", got, served)
	}
	if got := srv.Counters().PrefixBytesSaved.Load(); got != saved {
		t.Fatalf("PrefixBytesSaved = %d, want %d", got, saved)
	}
}
