package imaging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"image/color"
	"math"
	"strconv"
	"testing"
)

// The reference decoder: the plane format read the way planes.go's comment
// describes it, a bit at a time through a map of codes (pack_test.go's
// refCodes), a modulo per byte in the delta pass, one refinement bit at a time
// and one color.YCbCrToRGB + Image.Set per pixel — the decode path as it
// stood before the table decoder, the row kernels and the word-at-a-time
// fold. It shares no code with the product and exists only so the production
// path has something other than itself to be compared with.

// refRunBase and refRunExtra are RFC 1951's length table (3.2.5), symbols
// 257…285: the shortest run of each and its extra bits.
var (
	refRunBase  = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	refRunExtra = [29]int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
)

// refInflate decodes the coded planes at the front of src into planes, one
// after another, and fails unless src holds exactly them.
func refInflate(src []byte, planes ...[]byte) error {
	for p, plane := range planes {
		var err error
		if src, err = refInflatePlane(src, plane); err != nil {
			return fmt.Errorf("plane %d: %v", p, err)
		}
	}
	if len(src) != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

func refInflatePlane(src, plane []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, errors.New("no plane header")
	}
	if src[0] == 0 {
		if len(src)-1 < len(plane) {
			return nil, errors.New("stored plane cut short")
		}
		copy(plane, src[1:])
		return src[1+len(plane):], nil
	}
	symbol, src, err := refTables(src)
	if err != nil {
		return nil, err
	}
	bit, err := refSymbols(symbol, src, 0, plane)
	if err != nil {
		return nil, err
	}
	if err := refPadding(src, bit); err != nil {
		return nil, err
	}
	return src[(bit+7)/8:], nil
}

// refCodeword is a code of some length and value.
type refCodeword struct{ len, bits int }

// refTables reads a coded plane's two tables — residuals in zig-zag order,
// then the 29 run symbols and a 30th slot that must stay empty — and returns
// the symbol each code stands for and what follows them.
func refTables(src []byte) (map[refCodeword]int, []byte, error) {
	var lens [256 + 30]int
	for _, table := range [][]int{lens[:256], lens[256:]} {
		if len(src) == 0 {
			return nil, nil, errors.New("no table header")
		}
		h := int(src[0])
		if src = src[1:]; 2*h > len(table) || h > len(src) {
			return nil, nil, errors.New("code lengths cut short")
		}
		for i, b := range src[:h] {
			table[2*i], table[2*i+1] = int(b>>4), int(b&15)
		}
		src = src[h:]
	}
	kraft, used := 0.0, 0
	for _, l := range lens {
		if l > maxCodeLen {
			return nil, nil, errors.New("code too long")
		}
		if l > 0 {
			kraft += math.Ldexp(1, -l)
			used++
		}
	}
	if lens[len(lens)-1] != 0 || kraft != 1 && !(used == 1 && kraft == 0.5) {
		return nil, nil, errors.New("code not complete")
	}
	symbol := map[refCodeword]int{}
	for z, c := range refCodes(lens[:256+29]) {
		v, err := strconv.ParseInt(c, 2, 64)
		if err != nil {
			return nil, nil, err
		}
		symbol[refCodeword{len(c), int(v)}] = z
	}
	return symbol, src, nil
}

// refSymbols decodes the codes of src from bit on into plane, a bit at a
// time, and returns the bit after them. A run repeats a byte of plane.
func refSymbols(symbol map[refCodeword]int, src []byte, bit int, plane []byte) (int, error) {
	next := func() (int, error) {
		if bit/8 >= len(src) {
			return 0, errors.New("code stream cut short")
		}
		b := int(src[bit/8]>>(7-bit%8)) & 1
		bit++
		return b, nil
	}
	for out := 0; out < len(plane); {
		var c refCodeword
		z, ok := 0, false
		for !ok {
			b, err := next()
			if err != nil {
				return 0, err
			}
			c = refCodeword{c.len + 1, c.bits<<1 | b}
			if z, ok = symbol[c]; !ok && c.len >= maxCodeLen {
				return 0, errors.New("no such code")
			}
		}
		if z < 256 { // the residual at zig-zag position z
			r := z / 2
			if z%2 == 1 {
				r = -(z + 1) / 2
			}
			plane[out] = uint8(r)
			out++
			continue
		}
		n := refRunBase[z-256]
		extra := 0
		for e := 0; e < refRunExtra[z-256]; e++ {
			b, err := next()
			if err != nil {
				return 0, err
			}
			extra = extra<<1 | b
		}
		if n += extra; out == 0 || out+n > len(plane) {
			return 0, errors.New("a run with nothing to repeat or past the plane")
		}
		for i := 0; i < n; i++ {
			plane[out+i] = plane[out-1]
		}
		out += n
	}
	return bit, nil
}

// refPadding fails if a bit of src from bit to the end of its byte is set.
func refPadding(src []byte, bit int) error {
	for ; bit%8 != 0; bit++ {
		if src[bit/8]>>(7-bit%8)&1 != 0 {
			return errors.New("padding bit set")
		}
	}
	return nil
}

// refSJPGPlanes decodes the three planes of an SJPG stream of a w×h image
// into planes as codec.go's comment lays the stream out: the band index, then
// each plane's tables and its bands' codes, each band decoded on its own from
// where the index says it starts.
func refSJPGPlanes(data []byte, w, h int, planes [][]byte) error {
	payload := data[headerSize:]
	size, k := binary.Uvarint(payload)
	if k <= 0 || size > uint64(len(payload)-k) {
		return errors.New("no index")
	}
	index, body := payload[k:k+int(size)], payload[k+int(size):]
	var bad error
	next := func() int {
		v, k := binary.Uvarint(index)
		if k <= 0 || v > 1<<40 {
			bad = errors.New("index cut short")
			return 0
		}
		index = index[k:]
		return int(v)
	}
	cw := (w + 1) / 2
	for p, stride := range []int{w, cw, cw} {
		plane, band := planes[p], 16*stride
		if p > 0 {
			band = 8 * stride
		}
		size := next()
		if bad != nil || size > len(body) || size == 0 {
			return fmt.Errorf("plane %d: no plane", p)
		}
		data := body[:size]
		body = body[size:]
		var bits []int
		for lo := 0; lo < len(plane); lo += band {
			bits = append(bits, next())
		}
		if bad != nil {
			return bad
		}
		if data[0] == 0 {
			if len(data)-1 != len(plane) {
				return fmt.Errorf("plane %d: stored plane of %d bytes", p, len(data)-1)
			}
			for b, n := range bits {
				if n != 8*min(band, len(plane)-b*band) {
					return fmt.Errorf("plane %d band %d: %d bits stored", p, b, n)
				}
			}
			copy(plane, data[1:])
			continue
		}
		symbol, codes, err := refTables(data)
		if err != nil {
			return fmt.Errorf("plane %d: %v", p, err)
		}
		bit := 0
		for b, n := range bits {
			end := bit + n
			if bit, err = refSymbols(symbol, codes, bit, plane[b*band:min((b+1)*band, len(plane))]); err != nil {
				return fmt.Errorf("plane %d band %d: %v", p, b, err)
			}
			if bit != end {
				return fmt.Errorf("plane %d band %d ends at bit %d, not %d", p, b, bit, end)
			}
		}
		if (bit+7)/8 != len(codes) {
			return fmt.Errorf("plane %d: %d bits of codes in %d bytes", p, bit, len(codes))
		}
		if err := refPadding(codes, bit); err != nil {
			return err
		}
	}
	if len(index) != 0 || len(body) != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

// refDeltaDecode undoes refDeltaEncode: column 0 of a row predicts from the
// row above, or at the start of a band of band rows from the row band rows
// up.
func refDeltaDecode(plane []uint8, stride, band int) {
	for i := 1; i < len(plane); i++ {
		switch {
		case i%stride != 0:
			plane[i] += plane[i-1]
		case i/stride%band != 0:
			plane[i] += plane[i-stride]
		default:
			plane[i] += plane[i-band*stride]
		}
	}
}

func refDeltaEncode(plane []uint8, stride, band int) {
	for i := len(plane) - 1; i > 0; i-- {
		switch {
		case i%stride != 0:
			plane[i] -= plane[i-1]
		case i/stride%band != 0:
			plane[i] -= plane[i-stride]
		default:
			plane[i] -= plane[i-band*stride]
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

// refSplit cuts the Y, Cb and Cr planes of a w×h image from planes.
func refSplit(planes []uint8, w, h int) [][]uint8 {
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	return [][]uint8{planes[:n], planes[n : n+cn], planes[n+cn : n+2*cn]}
}

// refDeltaDecodePlanes undoes the row prediction of the three planes, in
// bands of 16 luma rows (SJPG) or in one band (band 0: SJPR).
func refDeltaDecodePlanes(planes []uint8, w, h, band int) {
	cw, ch := (w+1)/2, (h+1)/2
	if band == 0 {
		band = 2 * h
	}
	refDeltaDecode(planes[:w*h], w, band)
	refDeltaDecode(planes[w*h:w*h+cw*ch], cw, band/2)
	refDeltaDecode(planes[w*h+cw*ch:], cw, band/2)
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
		if err := refSJPGPlanes(data, w, h, refSplit(planes, w, h)); err != nil {
			return nil, err
		}
		refDeltaDecodePlanes(planes, w, h, 16)
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
			if err := refInflate(payload, refSplit(planes, hd.w, hd.h)...); err != nil {
				return nil, err
			}
			refDeltaDecodePlanes(planes, hd.w, hd.h, 0)
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
// value and each one right of the column or in a skipped row is still the
// residual — column 0 aside, on the bands' first rows down to the first listed
// row and on every row from its band's first to the last listed row. A tall
// list (shift 1) names each row twice. Bands are one a row, a few rows, or
// the whole plane.
func TestDeltaMatchesReference(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {13, 7}, {64, 33}} {
		for _, band := range []int{1, 4, maxDim} {
			assertDeltaMatches(t, dim[0], dim[1], band)
		}
	}
}

func assertDeltaMatches(t *testing.T, stride, rows, band int) {
	t.Helper()
	orig := make([]uint8, stride*rows)
	for i := range orig {
		orig[i] = uint8(i*131 + i>>3)
	}
	want := append([]uint8(nil), orig...)
	refDeltaEncode(want, stride, band)
	resid := append([]uint8(nil), orig...)
	deltaEncode(resid, stride, band)
	if !bytes.Equal(resid, want) {
		t.Errorf("deltaEncode %dx%d in bands of %d differs from the reference", stride, rows, band)
	}
	refDeltaDecode(want, stride, band)
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
				undoPrediction(got, stride, tall, shift, last, band, refinement{})
				listed := map[int]bool{}
				for _, r := range list {
					listed[int(r)] = true
				}
				top, bottom := int(list[0])/band*band, int(list[len(list)-1])
				for i, v := range got {
					r, c := i/stride, i%stride
					want := resid[i]
					if (listed[r] && c <= last) || (c == 0 && (r%band == 0 && r <= top || top <= r && r <= bottom)) {
						want = orig[i]
					}
					if v != want {
						t.Fatalf("undoPrediction %dx%d in bands of %d, rows %v>>%d through column %d: (%d, %d) = %d, want %d",
							stride, rows, band, tall, shift, last, c, r, v, want)
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
// fixed images, so that a change to either is noticed. The pixels digests
// were taken from the per-pixel encoder and a DEFLATE-reading decoder, and
// outlive every change of the stored form; the sjpg and sjpr digests are
// those of SJPG version 3 (planes in bands) and SJPR version 3, planes coded
// by planes.go.
func TestGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		w, h, quality int
		detail        float64
		sjpg, sjpr    string // encoded bytes
		pixels        string // Decode, then DecodeAtFidelity k = 1..MaxScans
	}{
		{seed: 1, w: 160, h: 161, quality: 80, detail: 0.5,
			sjpg: "2544fb69acd707fe", sjpr: "dea84387601bd193", pixels: "cca12a6e5f0185ec"},
		{seed: 2, w: 333, h: 250, quality: 95, detail: 0.9,
			sjpg: "7468338085093197", sjpr: "9bdfd9f9e6467a31", pixels: "a03d1547a4ceb6ad"},
		{seed: 3, w: 640, h: 480, quality: 40, detail: 0.2,
			sjpg: "4822377e9e52d7bd", sjpr: "6e3ca17bc250849a", pixels: "4f8d8ca9b8699bfd"},
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
