package imaging

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
)

func synthFor(t testing.TB, seed uint64, w, h int, detail float64) *Image {
	t.Helper()
	im, err := Synthesize(SynthParams{W: w, H: h, Detail: detail, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// A full-depth decode is pixel-identical at every scan count: the scans are a
// re-serialization of the same quantized planes, not a different codec.
func TestProgressiveFullMatchesSJPG(t *testing.T) {
	for _, q := range []int{30, 60, 80, 95} {
		for scans := 1; scans <= MaxScans; scans++ {
			im := synthFor(t, uint64(q*10+scans), 41, 29, 0.6)
			flat, err := Encode(im, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decode(flat)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := EncodeProgressive(im, q, scans)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(prog)
			if err != nil {
				t.Fatalf("q=%d scans=%d: %v", q, scans, err)
			}
			if !got.Equal(want) {
				d, _ := got.MaxAbsDiff(want)
				t.Fatalf("q=%d scans=%d: full decode differs from one scan's (max diff %d)", q, scans, d)
			}
			got.Release()
			want.Release()
		}
	}
}

// Property: for all seeds and scan counts, decoding the sliced k-scan
// prefix equals decoding the full container at fidelity k (the downsampled
// contract), and prefix sizes are strictly monotone in k.
func TestProgressivePrefixProperties(t *testing.T) {
	prop := func(seed uint64, wRaw, hRaw uint8, scansRaw uint8, detailRaw uint8) bool {
		w := 8 + int(wRaw)%48
		h := 8 + int(hRaw)%48
		scans := 1 + int(scansRaw)%MaxScans
		detail := float64(detailRaw) / 255
		im, err := Synthesize(SynthParams{W: w, H: h, Detail: detail, Seed: seed})
		if err != nil {
			t.Logf("synthesize: %v", err)
			return false
		}
		full, err := EncodeProgressive(im, 80, scans)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		prev := 0
		for k := 1; k <= scans; k++ {
			size, err := PrefixSize(full, k)
			if err != nil {
				t.Logf("prefix size k=%d: %v", k, err)
				return false
			}
			if size <= prev {
				t.Logf("prefix size not monotone at k=%d: %d <= %d", k, size, prev)
				return false
			}
			prev = size
			prefix, err := SlicePrefix(full, k)
			if err != nil {
				t.Logf("slice k=%d: %v", k, err)
				return false
			}
			fromPrefix, err := Decode(prefix)
			if err != nil {
				t.Logf("decode prefix k=%d: %v", k, err)
				return false
			}
			if c, _ := whole(prefix); c.present != k {
				t.Logf("prefix k=%d holds %d scans", k, c.present)
				return false
			}
			atFidelity, err := DecodeAtFidelity(full, k)
			if err != nil {
				t.Logf("decode at fidelity k=%d: %v", k, err)
				return false
			}
			eq := fromPrefix.Equal(atFidelity)
			fromPrefix.Release()
			atFidelity.Release()
			if !eq {
				t.Logf("prefix decode differs from at-fidelity decode at k=%d", k)
				return false
			}
		}
		if prev != len(full) {
			t.Logf("full prefix size %d != container size %d", prev, len(full))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fidelity is a quality ladder: each additional scan must not increase the
// reconstruction error against the full-fidelity decode, and shallower
// prefixes must cost fewer bytes.
func TestProgressiveFidelityLadder(t *testing.T) {
	im := synthFor(t, 7, 96, 64, 0.5)
	full, err := EncodeProgressive(im, 80, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecodeAtFidelity(full, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	prevErr := 1 << 10
	for k := 1; k <= MaxScans; k++ {
		im2, err := DecodeAtFidelity(full, k)
		if err != nil {
			t.Fatal(err)
		}
		d, err := im2.MaxAbsDiff(ref)
		im2.Release()
		if err != nil {
			t.Fatal(err)
		}
		if d > prevErr {
			t.Fatalf("fidelity ladder not monotone: k=%d has max error %d > %d", k, d, prevErr)
		}
		prevErr = d
	}
	if prevErr != 0 {
		t.Fatalf("full-depth decode should match itself, max error %d", prevErr)
	}
}

// Truncation mid-scan and index corruption must surface as typed errors —
// never as a quietly wrong image.
func TestProgressiveTruncationAndCorruption(t *testing.T) {
	im := synthFor(t, 11, 32, 24, 0.5)
	full, err := EncodeProgressive(im, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]bool{}
	for k := 1; k <= 3; k++ {
		n, err := PrefixSize(full, k)
		if err != nil {
			t.Fatal(err)
		}
		boundaries[n] = true
	}
	hdr, err := PrefixSize(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 64; trial++ {
		n := hdr + rng.IntN(len(full)-hdr)
		if boundaries[n] {
			continue
		}
		if im2, err := Decode(full[:n]); err == nil {
			im2.Release()
			t.Fatalf("mid-scan truncation to %d bytes decoded without error", n)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrTruncated/ErrCorrupt", n, err)
		}
	}

	// Corrupt a scan payload byte: the index CRC must catch it.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if im2, err := Decode(corrupt); err == nil {
		im2.Release()
		t.Fatal("corrupted scan payload decoded without error")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload: got %v, want ErrCorrupt", err)
	}

	// Corrupt the index itself (the first plane's size).
	corrupt = append(corrupt[:0], full...)
	corrupt[headerSize+1+4] = 0x7f
	if im2, err := Decode(corrupt); err == nil {
		im2.Release()
		t.Fatal("corrupted scan index decoded without error")
	} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("corrupted index: got %v, want ErrCorrupt/ErrTruncated", err)
	}
}

// ProgressiveInfo reports scans present for both full containers and
// prefixes; IsProgressive tells a container of one scan from a deeper one.
func TestProgressiveInfo(t *testing.T) {
	im := synthFor(t, 17, 24, 16, 0.4)
	full, err := EncodeProgressive(im, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Encode(im, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !IsProgressive(full) || IsProgressive(flat) {
		t.Fatal("IsProgressive misclassifies containers")
	}
	prefix, err := SlicePrefix(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, h, q, scans, present, err := ProgressiveInfo(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if w != 24 || h != 16 || q != 60 || scans != 3 || present != 2 {
		t.Fatalf("ProgressiveInfo = %d x %d q%d %d/%d", w, h, q, present, scans)
	}
	if _, err := EncodeProgressive(im, 60, MaxScans+1); err == nil {
		t.Fatal("scan count above MaxScans accepted")
	}
	if _, err := EncodeProgressive(im, 0, 2); err == nil {
		t.Fatal("quality 0 accepted")
	}
}

// SlicePrefix on the serving path must not copy or allocate: it returns a
// subslice of the stored container.
func TestSlicePrefixZeroCopy(t *testing.T) {
	im := synthFor(t, 19, 64, 48, 0.5)
	full, err := EncodeProgressive(im, 80, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := SlicePrefix(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if &prefix[0] != &full[0] {
		t.Fatal("SlicePrefix copied the container")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := SlicePrefix(full, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("SlicePrefix allocates %.1f/op, want 0", allocs)
	}
}

// TestFoldBitsMatchesPerValue: the word-at-a-time fold is the per-value
// v<<1 | bit, a bit plane at a time, on one to three bit planes, on every
// length around a word from every alignment, and on base values of 128 and
// more, whose top bit the uint8 shift drops.
func TestFoldBitsMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 64))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4099} {
		for trial := 0; trial < 24; trial++ {
			m, at := 1+trial%3, rng.IntN(17)
			span := (at + n + 7) / 8
			vals, packed := make([]uint8, n), make([]uint8, m*span)
			for i := range vals {
				vals[i] = uint8(rng.Uint32()) // half of them ≥ 128
			}
			for i := range packed {
				packed[i] = uint8(rng.Uint32()) // bits of other values: the fold must not read them
			}
			want := make([]uint8, n)
			for i, v := range vals {
				k := at + i
				for j := range m {
					v = v<<1 | packed[j*span+k/8]>>(k%8)&1
				}
				want[i] = v
			}
			refinement{packed, m}.fold(vals, at)
			if !bytes.Equal(vals, want) {
				t.Fatalf("n = %d, %d bit planes, value %d: the fold differs from the per-value loop", n, m, at)
			}
		}
	}
}

// TestScanErrorsNameTheScan: a refusal names the scan and the plane it is
// in, whether the index or the decoder refuses.
func TestScanErrorsNameTheScan(t *testing.T) {
	base := [3][]byte{stored(7), stored(7), stored(7)}
	bits := [3][]byte{stored(0b001), stored(0b001), stored(0b001)}
	wide := [3][]byte{stored(make([]byte, 64)...), stored(make([]byte, 32)...), stored(make([]byte, 32)...)}
	lone := handCode(map[byte]int{5: 1}, nil).out // one byte value, its code one bit, 0
	for want, data := range map[string][]byte{
		"scan 0 plane 2: 1 bytes hold no codes":               over(1, 1, [3][]byte{stored(7), stored(7), {5}}, bits),
		"scan 2 plane 0: truncated uvarint, or 3 bytes for 1": over(1, 1, base, bits, [3][]byte{{1, 0x10, 0}, bits[1], bits[2]}, bits),
		"scan 1 plane 0: bits set past the last value":        over(1, 1, base, [3][]byte{stored(0b011), bits[1], bits[2]}),
		"scan 1 plane 0: band 0: codes run":                   over(64, 1, wide, [3][]byte{append(slices.Clone(lone), 0x80), stored(0, 0, 0, 0), stored(0, 0, 0, 0)}),
	} {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("err %v, want ErrCorrupt naming %q", err, want)
		}
	}
}

// TestScanBoundsFollowTheScan: each plane's index entries are held to what
// that plane of its own scan decodes to — values in the base scan, one bit of
// each in a refinement scan — from both sides.
func TestScanBoundsFollowTheScan(t *testing.T) {
	// Above: planes of valid codes, with the right CRC, but longer than the
	// writer's worst case, the plane stored behind its marker. Coded under a
	// table of every byte value in eight bits, a plane takes 130 bytes more
	// than it holds. Both are refused from the index alone, by every entry
	// point, before any buffer is requested.
	const w, h = 64, 48
	n, cn := w*h, (w/2)*(h/2)
	eight := func(k int) []byte {
		return slices.Concat([]byte{128}, bytes.Repeat([]byte{0x88}, 128), []byte{0}, make([]byte, k))
	}
	if err := inflateInto(eight(cn), make([]byte, cn)); err != nil {
		t.Fatalf("the eight-bit table's plane: %v", err)
	}
	zeros := func(k int) []byte { return stored(make([]byte, k)...) }
	base, shortest := [3][]byte{zeros(n), zeros(cn), zeros(cn)}, [3][]byte{zeros(n / 8), zeros(cn / 8), zeros(cn / 8)}
	for name, long := range map[string][]byte{
		"base":       over(w, h, [3][]byte{zeros(n), eight(cn), zeros(cn)}, shortest),
		"refinement": over(w, h, base, [3][]byte{zeros(n / 8), eight(cn / 8), zeros(cn / 8)}),
	} {
		before := bufpool.ByteStats()
		_, sizeErr := PrefixSize(long, 1)
		_, decErr := Decode(long)
		_, fidErr := DecodeAtFidelity(long, 2)
		_, cropErr := DecodeCropResize(long, Rect{W: 8, H: 8}, 4, 4)
		for _, err := range []error{sizeErr, decErr, fidErr, cropErr} {
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "plane 1: truncated uvarint, or") {
				t.Errorf("over-long %s plane: err %v, want ErrCorrupt from the index", name, err)
			}
		}
		if _, ok := FidelityPrefixSize(long, 1); ok {
			t.Errorf("FidelityPrefixSize sliced a container with an over-long %s plane", name)
		}
		if after := bufpool.ByteStats(); after != before {
			t.Errorf("over-long %s plane refused after arena traffic: %+v, was %+v", name, after, before)
		}
	}
	// The same container with every plane stored is accepted.
	if im, err := Decode(over(w, h, base, shortest)); err != nil {
		t.Errorf("stored scans: %v", err)
	} else {
		im.Release()
	}

	// The writer's own worst case, noise it can only store, meets the bound.
	noise := MustNew(640, 480) // 38 400 B a luma bit plane
	rng := rand.New(rand.NewPCG(2, 24))
	for i := range noise.Pix {
		noise.Pix[i] = uint8(rng.Uint32())
	}
	worst, err := EncodeProgressive(noise, 95, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := parse(worst); err != nil || c.size[MaxScans-1][0] != 640*480/8+1 {
		t.Fatalf("noise: err %v, or its last luma bit plane (%d B) is not stored", err, c.size[MaxScans-1][0])
	}

	// Below: a flat image's bit planes take a few bytes a band of 1 280.
	flat := MustNew(640, 480)
	data, err := EncodeProgressive(flat, DefaultQuality, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	im, err := Decode(data)
	if err != nil {
		t.Fatalf("flat image: %v", err)
	}
	im.Release()
	// A band's length under the floor of its own plane is refused before the
	// planes.
	c, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// A byte of codes under a one-bit code can yield the 1 280 bytes of band
	// 0, and none are left for band 1.
	const big, bigC = 640 * 480, 320 * 240
	tiny := over(640, 480, [3][]byte{zeros(big), zeros(bigC), zeros(bigC)}, [3][]byte{{1, 0x10, 0, 0}, zeros(bigC / 8), zeros(bigC / 8)})
	before := bufpool.ByteStats()
	if _, err := Decode(tiny); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "scan 1 plane 0 band 1: a truncated length, or 0 bits") {
		t.Errorf("a byte of codes for a luma bit plane of 38 400 bytes: err %v, want ErrCorrupt", err)
	}
	if after := bufpool.ByteStats(); after != before {
		t.Errorf("refused after arena traffic: %+v, was %+v", after, before)
	}
	if c.size[1][0] > 128 {
		t.Errorf("a flat image's luma bit plane takes %d bytes", c.size[1][0])
	}
}
