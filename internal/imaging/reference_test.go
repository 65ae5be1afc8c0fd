package imaging

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"image/color"
	"io"
	"testing"
)

// The reference decoder: compress/flate's reader, a modulo per byte in the
// delta pass, one refinement bit at a time and one color.YCbCrToRGB +
// Image.Set per pixel — the decode path as it stood before the row kernels,
// the slice-to-slice inflater and the word-at-a-time fold. It exists only so
// the production path has something other than itself to be compared with.

// refInflate is inflateInto's contract on compress/flate: src must yield
// exactly len(dst) bytes.
func refInflate(src, dst []byte) error {
	zr := flate.NewReader(bytes.NewReader(src))
	if _, err := io.ReadFull(zr, dst); err != nil {
		return fmt.Errorf("decompress: %v", err)
	}
	var trail [1]byte
	switch _, err := io.ReadFull(zr, trail[:]); err {
	case io.EOF:
	case nil:
		return errors.New("trailing data")
	default:
		return fmt.Errorf("trailing garbage: %v", err)
	}
	return zr.Close()
}

func refDeltaDecode(plane []uint8, stride int) {
	for i := 1; i < len(plane); i++ {
		if i%stride != 0 {
			plane[i] += plane[i-1]
		} else {
			plane[i] += plane[i-stride]
		}
	}
}

func refDeltaEncode(plane []uint8, stride int) {
	for i := len(plane) - 1; i > 0; i-- {
		if i%stride != 0 {
			plane[i] -= plane[i-1]
		} else {
			plane[i] -= plane[i-stride]
		}
	}
}

func refDequant(v uint8, shift uint) uint8 {
	out := uint16(v) << shift
	if shift > 0 {
		out += 1 << (shift - 1)
	}
	if out > 255 {
		out = 255
	}
	return uint8(out)
}

func refPlanesToImage(w, h int, yShift, cShift uint, planes []uint8) *Image {
	cw, ch := (w+1)/2, (h+1)/2
	yPlane, cbPlane, crPlane := planes[:w*h], planes[w*h:w*h+cw*ch], planes[w*h+cw*ch:]
	im := MustNew(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ci := (y/2)*cw + x/2
			r, g, b := color.YCbCrToRGB(
				refDequant(yPlane[y*w+x], yShift),
				refDequant(cbPlane[ci], cShift),
				refDequant(crPlane[ci], cShift))
			im.Set(x, y, r, g, b)
		}
	}
	return im
}

func refDeltaDecodePlanes(planes []uint8, w, h int) {
	cw, ch := (w+1)/2, (h+1)/2
	refDeltaDecode(planes[:w*h], w)
	refDeltaDecode(planes[w*h:w*h+cw*ch], cw)
	refDeltaDecode(planes[w*h+cw*ch:], cw)
}

// refDecode decodes an SJPG stream, or the first k scans of an SJPR
// container (k is ignored for SJPG).
func refDecode(data []byte, k int) (*Image, error) {
	if !IsProgressive(data) {
		w, h, quality, err := parseHeader(data)
		if err != nil {
			return nil, err
		}
		planes := make([]uint8, w*h+2*((w+1)/2)*((h+1)/2))
		if err := refInflate(data[headerSize:], planes); err != nil {
			return nil, err
		}
		refDeltaDecodePlanes(planes, w, h)
		yShift, cShift := shifts(quality)
		return refPlanesToImage(w, h, yShift, cShift, planes), nil
	}
	hd, err := parseProgressive(data)
	if err != nil {
		return nil, err
	}
	planes := make([]uint8, hd.w*hd.h+2*((hd.w+1)/2)*((hd.h+1)/2))
	packed := make([]uint8, (len(planes)+7)/8) // a refinement scan: one bit a value
	off := hd.body
	for j := 0; j < k; j++ {
		payload := data[off : off+hd.lens[j]]
		off += hd.lens[j]
		if crc32.Checksum(payload, sjprCRC) != hd.crcs[j] {
			return nil, fmt.Errorf("scan %d CRC mismatch", j)
		}
		if j == 0 {
			if err := refInflate(payload, planes); err != nil {
				return nil, err
			}
			refDeltaDecodePlanes(planes, hd.w, hd.h)
			continue
		}
		if err := refInflate(payload, packed); err != nil {
			return nil, err
		}
		for i := range planes {
			planes[i] = planes[i]<<1 | packed[i/8]>>(i%8)&1
		}
		for i := len(planes); i < 8*len(packed); i++ {
			if packed[i/8]>>(i%8)&1 != 0 {
				return nil, fmt.Errorf("scan %d pad bit %d set", j, i)
			}
		}
	}
	yShift, cShift := shifts(hd.quality)
	extra := uint(hd.scans - k)
	return refPlanesToImage(hd.w, hd.h, yShift+extra, cShift+extra, planes), nil
}

var (
	// The plane totals of 1×1, 3×5, 7×7 and 161×163 are 3, 3, 1 and 7 mod 8:
	// an SJPR refinement scan's last byte holds that many values.
	refDims      = [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {7, 7}, {15, 17}, {160, 161}, {161, 163}, {640, 480}}
	refQualities = []int{95, 80, 60, 30} // one per shifts() band
)

// TestDecodeMatchesReference: every decode entry point equals the reference
// pixel for pixel, over odd and degenerate geometries, every quantization
// band and every scan depth.
func TestDecodeMatchesReference(t *testing.T) {
	for _, dim := range refDims {
		w, h := dim[0], dim[1]
		if testing.Short() && w*h > 160*161 {
			continue
		}
		im := synthFor(t, uint64(w*1000+h), w, h, 0.6)
		for _, q := range refQualities {
			name := fmt.Sprintf("%dx%d/q%d", w, h, q)
			data, err := Encode(im, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := refDecode(data, 0)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: Decode differs from the reference", name)
			}
			got.Release()

			for scans := 1; scans <= MaxScans; scans++ {
				prog, err := EncodeProgressive(im, q, scans)
				if err != nil {
					t.Fatalf("%s/L%d: %v", name, scans, err)
				}
				for k := 1; k <= scans; k++ {
					name := fmt.Sprintf("%s/L%d/k%d", name, scans, k)
					want, err := refDecode(prog, k)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					got, err := DecodeAtFidelity(prog, k)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !got.Equal(want) {
						t.Errorf("%s: DecodeAtFidelity differs from the reference", name)
					}
					got.Release()
					prefix, err := SlicePrefix(prog, k)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got, n, err := DecodeProgressive(prefix)
					if err != nil || n != k {
						t.Fatalf("%s: DecodeProgressive = %d scans, %v", name, n, err)
					}
					if !got.Equal(want) {
						t.Errorf("%s: DecodeProgressive differs from the reference", name)
					}
					got.Release()
				}
			}
		}
	}
}

// TestDeltaMatchesReference: deltaEncode equals the per-byte pass, and
// undoPrediction inverts it — on every row through the last column, and on
// any subset of rows through any column, where each listed value is the plane
// value and each one right of the column or in a skipped row, column 0 aside,
// is still the residual. A tall list (shift 1) names each row twice.
func TestDeltaMatchesReference(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {13, 7}, {64, 33}} {
		stride, rows := dim[0], dim[1]
		orig := make([]uint8, stride*rows)
		for i := range orig {
			orig[i] = uint8(i*131 + i>>3)
		}
		want := append([]uint8(nil), orig...)
		refDeltaEncode(want, stride)
		resid := append([]uint8(nil), orig...)
		deltaEncode(resid, stride)
		if !bytes.Equal(resid, want) {
			t.Errorf("deltaEncode %dx%d differs from the reference", stride, rows)
		}
		refDeltaDecode(want, stride)
		if !bytes.Equal(want, orig) {
			t.Errorf("refDeltaDecode %dx%d does not invert deltaEncode", stride, rows)
		}

		every := make([]int32, rows)
		for r := range every {
			every[r] = int32(r)
		}
		lists := [][]int32{every, {0}, {int32(rows - 1)}, {int32(rows / 2)}}
		if rows > 2 {
			lists = append(lists, []int32{1, int32(rows - 2)}, every[rows/3:])
		}
		for _, list := range lists {
			for _, shift := range []uint{0, 1} {
				for _, last := range []int{0, stride / 2, stride - 1} {
					tall := list
					if shift == 1 { // rows 2r and 2r+1 of the taller plane
						tall = nil
						for _, r := range list {
							tall = append(tall, 2*r, 2*r+1)
						}
					}
					got := append([]uint8(nil), resid...)
					undoPrediction(got, stride, tall, shift, last)
					listed := map[int]bool{}
					for _, r := range list {
						listed[int(r)] = true
					}
					bottom := int(list[len(list)-1])
					for i, v := range got {
						r, c := i/stride, i%stride
						want := resid[i]
						if (listed[r] && c <= last) || (c == 0 && r <= bottom) {
							want = orig[i]
						}
						if v != want {
							t.Fatalf("undoPrediction %dx%d rows %v>>%d through column %d: (%d, %d) = %d, want %d",
								stride, rows, tall, shift, last, c, r, v, want)
						}
					}
				}
			}
		}
	}
}

func fnvHex(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenDigests pins the stored bytes and the decoded pixels of three
// fixed images, so that a change to either — in this package or, for sjpr, in
// the compress/flate writer its scans go through — is noticed. The pixels
// digests were taken from the per-pixel encoder and the compress/flate-reader
// decoder; the sjpg digests are deflate.go's writer's, the sjpr digests
// container version 2's.
func TestGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		w, h, quality int
		detail        float64
		sjpg, sjpr    string // encoded bytes
		pixels        string // Decode, then DecodeAtFidelity k = 1..MaxScans
	}{
		{seed: 1, w: 160, h: 161, quality: 80, detail: 0.5,
			sjpg: "32f37975fd2aea0c", sjpr: "00dbc392fa21fc7a", pixels: "cca12a6e5f0185ec"},
		{seed: 2, w: 333, h: 250, quality: 95, detail: 0.9,
			sjpg: "213653153566c326", sjpr: "733b196f26a51198", pixels: "a03d1547a4ceb6ad"},
		{seed: 3, w: 640, h: 480, quality: 40, detail: 0.2,
			sjpg: "f7dbd484f980f47b", sjpr: "12afebb90d0fd995", pixels: "4f8d8ca9b8699bfd"},
	} {
		im := synthFor(t, c.seed, c.w, c.h, c.detail)
		sjpg, err := Encode(im, c.quality)
		if err != nil {
			t.Fatal(err)
		}
		sjpr, err := EncodeProgressiveSidecar(im, c.quality, MaxScans, []byte("label"))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(sjpg)
		if err != nil {
			t.Fatal(err)
		}
		pix := [][]byte{dec.Pix}
		for k := 1; k <= MaxScans; k++ {
			d, err := DecodeAtFidelity(sjpr, k)
			if err != nil {
				t.Fatal(err)
			}
			pix = append(pix, d.Pix)
		}
		got := [3]string{fnvHex(sjpg), fnvHex(sjpr), fnvHex(pix...)}
		if want := [3]string{c.sjpg, c.sjpr, c.pixels}; got != want {
			t.Errorf("seed %d: digests (sjpg, sjpr, pixels) = %q, want %q", c.seed, got, want)
		}
	}
}
