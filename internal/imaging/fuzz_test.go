package imaging

import "testing"

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

// FuzzDecode: the SJPG decoder must never panic or over-allocate on
// arbitrary input, and accepted images must re-encode/decode consistently.
func FuzzDecode(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Decode(data)
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

	f.Fuzz(func(t *testing.T, data []byte) {
		im, k, err := DecodeProgressive(data)
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
