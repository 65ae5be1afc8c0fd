package imaging

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/raceflag"
)

// refPack writes the packed form the slow way its description reads:
// de-interleave into G, R−G, B−G, deltaEncode each plane, one Huffman-only
// stream from a fresh writer. AppendPacked's fused loop and pooled writer
// must produce these bytes.
func refPack(t testing.TB, im *Image) []byte {
	t.Helper()
	n := im.W * im.H
	planes := make([]byte, Channels*n)
	for i := 0; i < n; i++ {
		r, g, b := im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2]
		planes[i], planes[n+i], planes[2*n+i] = g, r-g, b-g
	}
	for p := 0; p < Channels; p++ {
		deltaEncode(planes[p*n:(p+1)*n], im.W)
	}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.HuffmanOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(planes); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refUnpack inverts refPack with compress/flate's reader and deltaDecode.
func refUnpack(data []byte, w, h int) (*Image, error) {
	n := w * h
	planes := make([]byte, Channels*n)
	if err := refInflate(data, planes); err != nil {
		return nil, err
	}
	for p := 0; p < Channels; p++ {
		deltaDecode(planes[p*n:(p+1)*n], w)
	}
	im := MustNew(w, h)
	for i := 0; i < n; i++ {
		g := planes[i]
		im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = planes[n+i]+g, g, planes[2*n+i]+g
	}
	return im, nil
}

func flatImage(w, h int, r, g, b uint8) *Image {
	im := MustNew(w, h)
	for i := 0; i < len(im.Pix); i += Channels {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
	}
	return im
}

func noiseImage(w, h int, seed uint64) *Image {
	im := MustNew(w, h)
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Uint32())
	}
	return im
}

// benchCrop is a crop as the live tier ships them: a decoded SJPG photo
// resampled to side×side.
func benchCrop(t testing.TB, seed uint64, w, h, side int, detail float64) *Image {
	t.Helper()
	raw, err := EncodeDefault(synthFor(t, seed, w, h, detail))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CropResize(dec, Rect{X: w / 10, Y: h / 10, W: w * 3 / 5, H: h * 3 / 5}, side, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func packShapes(t testing.TB) map[string]*Image {
	return map[string]*Image{
		"1x1":         flatImage(1, 1, 200, 3, 90),
		"one column":  synthFor(t, 2, 1, 9, 0.5),
		"one row":     synthFor(t, 3, 9, 1, 0.5),
		"odd width":   synthFor(t, 4, 13, 7, 0.6),
		"photo":       synthFor(t, 5, 64, 48, 0.5),
		"one colour":  flatImage(33, 17, 10, 250, 128),
		"noise":       noiseImage(31, 23, 6),
		"noise, wide": noiseImage(160, 140, 7), // 67 200 B: more than one stored block
		"crop":        benchCrop(t, 8, 320, 240, 128, 0.5),
	}
}

func TestPackMatchesReference(t *testing.T) {
	for name, im := range packShapes(t) {
		want := refPack(t, im)
		got, err := AppendPacked([]byte("hdr"), im)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], want) {
			t.Errorf("%s: AppendPacked differs from the reference encoding (%d vs %d bytes)", name, len(got)-3, len(want))
			continue
		}
		back, err := Unpack(want, im.W, im.H)
		if err != nil {
			t.Fatalf("%s: Unpack: %v", name, err)
		}
		ref, err := refUnpack(want, im.W, im.H)
		if err != nil {
			t.Fatalf("%s: reference unpack: %v", name, err)
		}
		if !back.Equal(im) || !ref.Equal(im) {
			t.Errorf("%s: round trip changed pixels (Unpack ok: %v, reference ok: %v)", name, back.Equal(im), ref.Equal(im))
		}
		back.Release()
	}
}

// TestPackedGoldenDigests pins the wire bytes of three crops so the packed
// form cannot drift silently. As with TestGoldenDigests, a failure with
// TestPackMatchesReference green means compress/flate's writer changed.
func TestPackedGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		w, h   int
		detail float64
		size   int
		digest string
	}{
		{seed: 1, w: 200, h: 160, detail: 0.2, size: 17396, digest: "a2fbbe049a993602"},
		{seed: 2, w: 400, h: 300, detail: 0.5, size: 24340, digest: "70ac4b042c588084"},
		{seed: 3, w: 640, h: 480, detail: 0.9, size: 29866, digest: "abae2142ff158203"},
	} {
		enc, err := AppendPacked(nil, benchCrop(t, c.seed, c.w, c.h, 128, c.detail))
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != c.size || fnvHex(enc) != c.digest {
			t.Errorf("seed %d: packed to %d bytes, digest %q; want %d, %q", c.seed, len(enc), fnvHex(enc), c.size, c.digest)
		}
	}
}

// TestPackedSizeBounds: photo-like crops pack to about half; pixels Huffman
// coding cannot shrink are stored, 5 B per 65 535 B block plus the 5 B empty
// final block over the pixel bytes — the slack a buffer sized by the unpacked
// length must have for AppendPacked not to regrow it.
func TestPackedSizeBounds(t *testing.T) {
	crop := benchCrop(t, 2, 400, 300, 128, 0.5)
	enc, err := AppendPacked(nil, crop)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(enc)) / float64(len(crop.Pix)); ratio < 0.3 || ratio > 0.6 {
		t.Errorf("128x128 crop packed to %.3f of its pixels, want about 0.45-0.5", ratio)
	}
	for _, im := range []*Image{noiseImage(128, 128, 1), noiseImage(160, 140, 2), noiseImage(300, 300, 3)} {
		enc, err := AppendPacked(nil, im)
		if err != nil {
			t.Fatal(err)
		}
		n := len(im.Pix)
		if bound := n + 5*((n+65534)/65535) + 5; len(enc) > bound {
			t.Errorf("%dx%d noise packed to %d bytes, bound is %d", im.W, im.H, len(enc), bound)
		}
	}
}

func TestUnpackRejects(t *testing.T) {
	im := benchCrop(t, 4, 160, 120, 32, 0.5)
	good, err := AppendPacked(nil, im)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, data []byte, w, h int) {
		t.Helper()
		out, err := Unpack(data, w, h)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if out != nil {
			t.Errorf("%s: returned an image with the error", name)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		corrupt("truncated", good[:cut], im.W, im.H)
	}
	corrupt("trailing byte", append(append([]byte(nil), good...), 0), im.W, im.H)
	corrupt("wider than packed", good, im.W+1, im.H)
	corrupt("shorter than packed", good, im.W, im.H-1)
	corrupt("zero width", good, 0, im.H)
	corrupt("negative height", good, im.W, -1)
	corrupt("over the dimension cap", good, 1<<16+1, 1)

	// Dimensions the payload cannot produce are refused before any buffer is
	// requested: 65 536 × 65 536 would be a 12 GiB plane scratch.
	before := bufpool.ByteStats()
	corrupt("implausible dims", good, 1<<16, 1<<16)
	if after := bufpool.ByteStats(); after != before {
		t.Errorf("implausible dims reached the buffer arena: %+v -> %+v", before, after)
	}
}

func TestPackSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only a collection empties the pools
	im := benchCrop(t, 2, 400, 300, 128, 0.5)
	buf := make([]byte, 0, len(im.Pix))
	var enc []byte
	if allocs := testing.AllocsPerRun(20, func() {
		var err error
		if enc, err = AppendPacked(buf, im); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendPacked allocates %.1f allocs/op at steady state, want 0 (pooled writer, pooled planes)", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		out, err := Unpack(enc, im.W, im.H)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}); allocs != 1 {
		t.Errorf("Unpack allocates %.1f allocs/op at steady state, want 1 (the Image header)", allocs)
	}
}

func BenchmarkPack128(b *testing.B) {
	im := benchCrop(b, 2, 400, 300, 128, 0.5)
	buf := make([]byte, 0, len(im.Pix))
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendPacked(buf, im); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack128(b *testing.B) {
	im := benchCrop(b, 2, 400, 300, 128, 0.5)
	enc, err := AppendPacked(nil, im)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Unpack(enc, im.W, im.H)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}
