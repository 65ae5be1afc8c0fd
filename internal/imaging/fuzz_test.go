package imaging

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

// decodeCorpus is the seed corpus of the SJPG fuzzers: two real streams, a
// bare magic and nothing.
func decodeCorpus(f *testing.F) [][]byte {
	corpus := [][]byte{[]byte("SJPG"), {}}
	for _, seed := range []uint64{1, 2} {
		im, err := Synthesize(SynthParams{W: 16, H: 12, Detail: 0.5, Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeDefault(im)
		if err != nil {
			f.Fatal(err)
		}
		corpus = append(corpus, data)
	}
	return corpus
}

// handmadeSeeds frames the hand-built planes of the coder's tests — the
// rejection table and the streams around the fast loops' margins — as SJPG
// streams and as SJPR containers whose three refinement scans decode in step.
func handmadeSeeds() (sjpg, sjpr [][]byte) {
	add := func(plane []byte, n int) {
		g, _, _, r := planeStreams(plane, n)
		sjpg, sjpr = append(sjpg, g), append(sjpr, r)
	}
	for _, c := range inflateRejections() {
		add(c.stream, max(c.n, 1))
	}
	for _, c := range handoverStreams() {
		if len(c.sizes) == 1 {
			add(c.stream, c.sizes[0])
		}
	}
	return sjpg, sjpr
}

// agreesWithReference holds a decode's verdict and image to the reference
// decoder's, at k scans of an SJPR container, where data claims few enough
// pixels for the reference, which sizes its planes from the header.
func agreesWithReference(t *testing.T, data []byte, k int, im *Image, err error) {
	t.Helper()
	w, h, _, _, _, _ := ProgressiveInfo(data)
	if !IsProgressive(data) {
		w, h, _ = DecodeDims(data)
	}
	if w*h == 0 || w*h > 1<<16 {
		return
	}
	want, refErr := refDecode(data, k)
	if (err == nil) != (refErr == nil) || err == nil && !im.Equal(want) {
		t.Fatalf("err %v, the reference's %v, or the images differ", err, refErr)
	}
}

// FuzzDecode: the SJPG decoder must never panic or over-allocate on
// arbitrary input, agrees with the reference decoder, and accepted images
// must re-encode/decode consistently.
func FuzzDecode(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	seeds, _ := handmadeSeeds()
	for _, data := range seeds {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Decode(data)
		agreesWithReference(t, data, 0, im, err)
		if err != nil {
			return
		}
		if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H*Channels {
			t.Fatalf("accepted image has inconsistent geometry: %dx%d, %d bytes", im.W, im.H, len(im.Pix))
		}
		re, err := Encode(im, 80)
		if err != nil {
			t.Fatalf("accepted image failed to re-encode: %v", err)
		}
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-encoded image failed to decode: %v", err)
		}
	})
}

// FuzzDecodeCropResize: on any bytes, rect and output size the fused entry
// point never panics and is CropResize(Decode(data), rect, out, out) — the
// same pixels, or the same error where either step refuses.
func FuzzDecodeCropResize(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data, 0, 0, 16, 12, 8) // whole image, sparse taps
		f.Add(data, 3, 2, 8, 8, 8)   // pure copy
		f.Add(data, 5, 5, 3, 2, 32)  // every source pixel reused
		f.Add(data, 9, 0, 8, 12, 4)  // past the right edge
		f.Add(data, 1<<62, 1, 1<<62, 1, 0)
	}

	f.Fuzz(func(t *testing.T, data []byte, x, y, w, h, out int) {
		if out > 256 {
			return // the output is sized from out alone
		}
		rect := Rect{X: x, Y: y, W: w, H: h}
		got, err := DecodeCropResize(data, rect, out, out)
		var want *Image
		full, wantErr := Decode(data)
		if wantErr == nil {
			want, wantErr = CropResize(full, rect, out, out)
			full.Release()
		}
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("fused err %v, unfused %v", err, wantErr)
			}
			return
		}
		if err != nil || !got.Equal(want) {
			t.Fatalf("crop %+v to %d: fused err %v, or pixels differ from CropResize(Decode)", rect, out, err)
		}
		got.Release()
		want.Release()
	})
}

// FuzzDecodeProgressive: the SJPR decoder must never panic, over-allocate,
// or return a wrong image on arbitrary input — truncated or corrupted
// containers surface as errors, and whatever it accepts must satisfy the
// prefix contract (slice of k scans decodes identically to decoding the
// blob at fidelity k).
func FuzzDecodeProgressive(f *testing.F) {
	// 16×12 fills its refinement scans' last byte; 15×11 leaves three pad bits.
	for seed, dim := range [][2]int{{16, 12}, {15, 11}} {
		im, err := Synthesize(SynthParams{W: dim[0], H: dim[1], Detail: 0.5, Seed: uint64(seed + 1)})
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeProgressiveSidecar(im, 80, 3, []byte("label"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if prefix, err := SlicePrefix(data, 2); err == nil {
			f.Add(prefix)
		}
		f.Add(data[:len(data)-3]) // mid-scan truncation
	}
	f.Add([]byte("SJPR"))
	f.Add([]byte{})
	_, seeds := handmadeSeeds()
	for _, data := range seeds {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im, k, err := DecodeProgressive(data)
		if err == nil || !errors.Is(err, ErrTruncated) {
			_, _, _, _, present, _ := ProgressiveInfo(data)
			agreesWithReference(t, data, present, im, err)
		}
		if err != nil {
			return
		}
		if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H*Channels {
			t.Fatalf("accepted image has inconsistent geometry: %dx%d, %d bytes", im.W, im.H, len(im.Pix))
		}
		if k < 1 || k > MaxScans {
			t.Fatalf("accepted container reports %d scans", k)
		}
		again, err := DecodeAtFidelity(data, k)
		if err != nil {
			t.Fatalf("accepted container failed at-fidelity decode: %v", err)
		}
		if !im.Equal(again) {
			t.Fatal("DecodeProgressive and DecodeAtFidelity disagree on the same blob")
		}
		again.Release()
		im.Release()
	})
}

// fuzzImage turns fuzzer bytes into an image whose pixels repeat pix (zeros
// when pix is empty). Sides are capped at 256, which keeps an exec in the
// milliseconds; TestWriterDims has 640×480.
func fuzzImage(w, h uint16, pix []byte) *Image {
	im := MustNew(1+int(w)%256, 1+int(h)%256)
	for i := range im.Pix {
		if len(pix) > 0 {
			im.Pix[i] = pix[i%len(pix)]
		}
	}
	return im
}

// FuzzEncode: on any image and quality, both decoders give back exactly the
// planes, and Decode is the reference decoder's image.
func FuzzEncode(f *testing.F) {
	for _, dim := range [][2]uint16{{0, 0}, {0, 8}, {8, 0}, {2, 4}, {6, 6}, {160, 162}, {255, 255}} {
		f.Add(dim[0], dim[1], uint8(DefaultQuality), []byte{0})
		f.Add(dim[0], dim[1], uint8(94), []byte{0x5a, 0x5a, 0x5a})
		f.Add(dim[0], dim[1], uint8(39), []byte{0, 0, 0, 255, 255, 255})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	noise := make([]byte, 4099)
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	f.Add(uint16(63), uint16(63), uint8(100), noise)
	for _, n := range []int{3, 4, 5, 258, 259, 516, 517} {
		f.Add(uint16(99), uint16(99), uint8(95), append(bytes.Repeat([]byte{9}, 3*n), 1, 2, 3))
	}

	f.Fuzz(func(t *testing.T, w, h uint16, q uint8, pix []byte) {
		im, quality := fuzzImage(w, h, pix), 1+int(q)%100
		data := assertEncodes(t, "fuzz", im, quality)
		want, err := refDecode(data, 0)
		if err != nil {
			t.Fatalf("reference decoder: %v", err)
		}
		got, err := Decode(data)
		if err != nil || !got.Equal(want) {
			t.Fatalf("Decode: %v, or it differs from the reference", err)
		}
		got.Release()
	})
}
