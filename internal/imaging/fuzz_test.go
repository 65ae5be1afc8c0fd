package imaging

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

// synthForFuzz is a synthetic w×h image for a fuzzer's seeds.
func synthForFuzz(f *testing.F, w, h int) *Image {
	im, err := Synthesize(SynthParams{W: w, H: h, Detail: 0.5, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	return im
}

// decodeCorpus is the seed corpus of the decode fuzzers: containers of one
// to MaxScans scans of two images, each whole-scan prefix of them and each cut
// short of its last byte, a bare magic and nothing. 16×12 fills its bit
// planes' last bytes; 15×11 leaves pad bits in them.
func decodeCorpus(f *testing.F) [][]byte {
	corpus := [][]byte{[]byte("SJPG"), {}}
	for seed, dim := range [][2]int{{16, 12}, {15, 11}} {
		im, err := Synthesize(SynthParams{W: dim[0], H: dim[1], Detail: 0.5, Seed: uint64(seed + 1)})
		if err != nil {
			f.Fatal(err)
		}
		for scans := 1; scans <= MaxScans; scans++ {
			data, err := EncodeProgressive(im, DefaultQuality, scans)
			if err != nil {
				f.Fatal(err)
			}
			for k := 1; k <= scans; k++ {
				prefix, err := SlicePrefix(data, k)
				if err != nil {
					f.Fatal(err)
				}
				corpus = append(corpus, prefix)
			}
			corpus = append(corpus, data[:len(data)-1])
		}
	}
	return corpus
}

// handmadeSeeds frames the hand-built planes of the coder's tests — the
// rejection table and the streams around the fast loop's margins — as the Cr
// plane of a base scan and of a refinement scan (planeStreams).
func handmadeSeeds() (seeds [][]byte) {
	add := func(plane []byte, n int) {
		base, refine := planeStreams(plane, n)
		seeds = append(seeds, base, refine)
	}
	for _, c := range inflateRejections() {
		add(c.stream, max(c.n, 1))
	}
	for _, c := range handoverStreams() {
		if len(c.sizes) == 1 {
			add(c.stream, c.sizes[0])
		}
	}
	return seeds
}

// agreesWithReference holds Decode's verdict and image on data to the
// reference decoder's, where data claims few enough pixels for the
// reference, which sizes its planes from the header.
func agreesWithReference(t *testing.T, data []byte, im *Image, err error) {
	t.Helper()
	if w, h, _ := DecodeDims(data); w*h == 0 || w*h > 1<<16 {
		return
	}
	want, refErr := refDecode(data, 0)
	if (err == nil) != (refErr == nil) || err == nil && !im.Equal(want) {
		t.Fatalf("err %v, the reference's %v, or the images differ", err, refErr)
	}
}

// FuzzDecode: the decoder must never panic or over-allocate on arbitrary
// input and agrees with the reference decoder; truncated or corrupted
// containers surface as errors. An accepted image re-encodes and decodes, and
// the scans it came from decode to it from the whole container too
// (DecodeAtFidelity).
func FuzzDecode(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	for _, data := range handmadeSeeds() {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Decode(data)
		agreesWithReference(t, data, im, err)
		if err != nil {
			return
		}
		defer im.Release()
		if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H*Channels {
			t.Fatalf("accepted image has inconsistent geometry: %dx%d, %d bytes", im.W, im.H, len(im.Pix))
		}
		c, err := whole(data)
		if err != nil {
			t.Fatalf("accepted container refused by its parse: %v", err)
		}
		again, err := DecodeAtFidelity(data, c.present)
		if err != nil || !im.Equal(again) {
			t.Fatalf("DecodeAtFidelity at its %d scans: %v, or it differs from Decode", c.present, err)
		}
		again.Release()
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
// point never panics and keeps its contract with the planes path. Where
// DecodePlanes accepts, it is Planes.CropResize(rect, out, out) — the same
// pixels, or the same error. A header, an index or a cut Decode refuses, it
// refuses in Decode's words, and a rect outside the image in
// checkCropResize's. Where DecodePlanes refuses a scan or a band, it may
// succeed or refuse, but widened to every row it refuses in DecodePlanes's
// words.
func FuzzDecodeCropResize(f *testing.F) {
	corpus := decodeCorpus(f)
	for _, scans := range []int{1, MaxScans} {
		tall, err := EncodeProgressive(synthForFuzz(f, 21, 40), DefaultQuality, scans)
		if err != nil {
			f.Fatal(err)
		}
		flipped := bytes.Clone(tall)
		flipped[len(flipped)-1] ^= 0x80 // the last band of the last Cr plane
		corpus = append(corpus, tall, flipped)
	}
	for _, data := range corpus {
		f.Add(data, 0, 0, 16, 12, 8) // whole image, sparse taps
		f.Add(data, 3, 2, 8, 8, 8)   // pure copy
		f.Add(data, 5, 5, 3, 2, 32)  // every source pixel reused
		f.Add(data, 9, 0, 8, 12, 4)  // past the right edge
		f.Add(data, 1<<62, 1, 1<<62, 1, 0)
		f.Add(data, 2, 15, 7, 2, 5)   // across the first band edge
		f.Add(data, 0, 16, 21, 16, 4) // the second band
		f.Add(data, 1, 33, 20, 7, 3)  // the last band
	}

	f.Fuzz(func(t *testing.T, data []byte, x, y, w, h, out int) {
		if out > 256 {
			return // the output is sized from out alone
		}
		if len(data) > headerSize && data[4]&rowsFlag != 0 {
			return // the sliced form, which FuzzSliceRows holds
		}
		rect := Rect{X: x, Y: y, W: w, H: h}
		got, err := DecodeCropResize(data, rect, out, out)
		defer got.Release()
		s, parseErr := whole(data)
		if parseErr != nil {
			if err == nil || err.Error() != parseErr.Error() {
				t.Fatalf("header or index refused as %v, the crop's err %v", parseErr, err)
			}
			return
		}
		if rectErr := checkCropResize(rect, s.w, s.h, out, out); rectErr != nil {
			if err == nil || err.Error() != rectErr.Error() {
				t.Fatalf("rect refused as %v, the crop's err %v", rectErr, err)
			}
			return
		}
		pl, decodeErr := DecodePlanes(data)
		if decodeErr == nil {
			want, wantErr := pl.CropResize(rect, out, out)
			if wantErr != nil || err != nil || !got.Equal(want) {
				t.Fatalf("crop %+v to %d: fused err %v, from the planes %v, or the pixels differ", rect, out, err, wantErr)
			}
			want.Release()
			return
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode refuses a band (%v), the crop %+v says %v", decodeErr, rect, err)
		}
		wide, wideErr := DecodeCropResize(data, Rect{X: x, W: w, H: s.h}, out, out)
		if wideErr == nil || wideErr.Error() != decodeErr.Error() {
			wide.Release()
			t.Fatalf("crop %+v widened to every row: err %v, want Decode's %v", rect, wideErr, decodeErr)
		}
	})
}

// FuzzDecodePlanes: on any bytes DecodePlanes never panics and either
// refuses them, in Decode's words and the same words every time, or crops as
// DecodeCropResize does — the same pixels or the same error — at the fuzzed
// rect and output size and at the whole image to 1², 7² and 128².
func FuzzDecodePlanes(f *testing.F) {
	corpus := decodeCorpus(f)
	corpus = append(corpus, handmadeSeeds()...)
	header := bytes.Clone(corpus[2])
	header[6] ^= 0x80 // a width over the cap
	corpus = append(corpus, header)
	for _, data := range corpus {
		f.Add(data, 0, 0, 16, 12, 8)
		f.Add(data, 5, 5, 3, 2, 32)
		f.Add(data, 9, 0, 8, 12, 4)
	}

	f.Fuzz(func(t *testing.T, data []byte, x, y, w, h, out int) {
		if out > 256 {
			return // the output is sized from out alone
		}
		pl, err := DecodePlanes(data)
		if err != nil {
			_, again := DecodePlanes(data)
			_, decodeErr := Decode(data)
			if again == nil || again.Error() != err.Error() || decodeErr == nil || decodeErr.Error() != err.Error() {
				t.Fatalf("refused as %v, then as %v; Decode says %v", err, again, decodeErr)
			}
			return
		}
		sw, sh, _ := DecodeDims(data)
		crops := []struct {
			rect Rect
			out  int
		}{{Rect{X: x, Y: y, W: w, H: h}, out}, {Rect{W: sw, H: sh}, 1}, {Rect{W: sw, H: sh}, 7}, {Rect{W: sw, H: sh}, 128}}
		for _, c := range crops {
			got, err := pl.CropResize(c.rect, c.out, c.out)
			want, wantErr := DecodeCropResize(data, c.rect, c.out, c.out)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || err == nil && !got.Equal(want) {
				t.Fatalf("crop %+v to %d: from the planes err %v, fused %v, or the pixels differ", c.rect, c.out, err, wantErr)
			}
			got.Release()
			want.Release()
		}
	})
}

// FuzzDecodeProgressive: whatever DecodeProgressive accepts holds the prefix
// contract at every depth it carries — the k-scan prefix decodes to what
// DecodeAtFidelity reads from the whole input at k — and its full depth is
// Decode's image. Seeded with the decode corpus and the hand-made planes as a
// refinement scan's Cr plane.
func FuzzDecodeProgressive(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	for i, data := range handmadeSeeds() {
		if i%2 == 1 {
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im, k, err := DecodeProgressive(data)
		agreesWithReference(t, data, im, err)
		if err != nil {
			return
		}
		defer im.Release()
		if _, _, _, scans, present, _ := ProgressiveInfo(data); k != present || k < 1 || k > scans || scans > MaxScans {
			t.Fatalf("accepted input reports %d scans decoded, %d present of %d", k, present, scans)
		}
		for j := 1; j <= k; j++ {
			prefix, err := SlicePrefix(data, j)
			if err != nil {
				t.Fatalf("the %d-scan prefix of an accepted input: %v", j, err)
			}
			got, err := Decode(prefix)
			if err != nil {
				t.Fatalf("the %d-scan prefix refused: %v", j, err)
			}
			want, err := DecodeAtFidelity(data, j)
			if err != nil || !got.Equal(want) {
				t.Fatalf("DecodeAtFidelity at %d scans: %v, or it differs from the prefix's image", j, err)
			}
			if j == k && !got.Equal(im) {
				t.Fatalf("the %d-scan prefix differs from DecodeProgressive's image", j)
			}
			got.Release()
			want.Release()
		}
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
