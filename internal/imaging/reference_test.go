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
	"slices"
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

// refScan is one scan of a container as the index describes it: its CRC,
// each plane's bytes (nil where data ends before them) and size, and each of
// its bands' lengths in bits.
type refScan struct {
	crc    uint32
	planes [3][]byte
	sizes  [3]int
	bits   [3][]int
}

// refPlaneBytes is the size of plane p of scan j of a w×h image and of its
// bands: values, or one bit each after scan 0.
func refPlaneBytes(w, h, p, j int) (n, band int) {
	cw, ch := (w+1)/2, (h+1)/2
	n, band = w*h, 16*w
	if p > 0 {
		n, band = cw*ch, 8*cw
	}
	if j > 0 {
		n, band = (n+7)/8, band/8
	}
	return n, band
}

// refParse reads a container the way codec.go's comment lays it out and
// returns its scans and how many of them data holds whole (−1: it ends inside
// one). Every coded plane's bands must be able to yield their bytes, a run a
// bit at least, and fit its codes; the bands of a plane data holds must end
// in its last byte, and its marker say stored where its size does.
func refParse(data []byte) (w, h, quality int, scans []refScan, present int, err error) {
	w, h, quality, l, err := parseHeader(data)
	if err != nil {
		return 0, 0, 0, nil, 0, err
	}
	payload := data[headerSize:]
	size, k := binary.Uvarint(payload)
	if k <= 0 || size > uint64(len(payload)-k) {
		return 0, 0, 0, nil, 0, errors.New("no index")
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
	fail := func(e error) (int, int, int, []refScan, int, error) { return 0, 0, 0, nil, 0, e }
	ends := []int{0}
	for j := 0; j < l; j++ {
		if len(index) < 4 {
			return fail(errors.New("no CRC"))
		}
		s := refScan{crc: binary.BigEndian.Uint32(index)}
		index = index[4:]
		for p := range 3 {
			n, band := refPlaneBytes(w, h, p, j)
			s.sizes[p] = next()
			stored := bad == nil && s.sizes[p] == 0 // its size and bands go without saying
			if stored {
				s.sizes[p] = n + 1
			}
			if bad != nil || s.sizes[p] > n+1 {
				return fail(fmt.Errorf("scan %d plane %d: no plane", j, p))
			}
			start := ends[len(ends)-1] + sumSizes(s.sizes[:p])
			codes := 8 * (s.sizes[p] - 1)
			if start+s.sizes[p] <= len(body) {
				plane := body[start : start+s.sizes[p]]
				if stored != (plane[0] == 0) {
					return fail(fmt.Errorf("scan %d plane %d: stored %v, marker %d", j, p, stored, plane[0]))
				}
				if hl := int(plane[0]); hl != 0 {
					if 1+hl >= len(plane) || 2+hl+int(plane[1+hl]) > len(plane) {
						return fail(fmt.Errorf("scan %d plane %d: tables run past the plane", j, p))
					}
					codes = 8 * (len(plane) - 2 - hl - int(plane[1+hl]))
				}
				s.planes[p] = plane
			}
			if stored {
				continue
			}
			total := 0
			for lo := 0; lo < n; lo += band {
				b := next()
				if rows := min(band, n-lo); b*258 < rows {
					return fail(fmt.Errorf("scan %d plane %d: %d bits cannot yield %d bytes", j, p, b, rows))
				}
				s.bits[p], total = append(s.bits[p], b), total+b
			}
			if bad != nil || total > codes || s.planes[p] != nil && codes-total >= 8 {
				return fail(fmt.Errorf("scan %d plane %d: %d bits of bands in %d of codes", j, p, total, codes))
			}
		}
		scans = append(scans, s)
		ends = append(ends, ends[len(ends)-1]+sumSizes(s.sizes[:]))
	}
	if len(index) != 0 || len(body) > ends[l] {
		return fail(errors.New("trailing bytes"))
	}
	return w, h, quality, scans, slices.Index(ends, len(body)), nil
}

func sumSizes(sizes []int) (n int) {
	for _, s := range sizes {
		n += s
	}
	return n
}

// refBands decodes a plane of n bytes, each of its bands on its own from
// where bits, the bands' lengths, say it starts.
func refBands(plane []byte, bits []int, n, band int) ([]byte, error) {
	out := make([]byte, n)
	if plane[0] == 0 {
		copy(out, plane[1:])
		return out, nil
	}
	symbol, codes, err := refTables(plane)
	if err != nil {
		return nil, err
	}
	bit := 0
	for b, k := range bits {
		end := bit + k
		if bit, err = refSymbols(symbol, codes, bit, out[b*band:min((b+1)*band, n)]); err != nil {
			return nil, fmt.Errorf("band %d: %v", b, err)
		}
		if bit != end {
			return nil, fmt.Errorf("band %d ends at bit %d, not %d", b, bit, end)
		}
	}
	return out, refPadding(codes, bit)
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
			setPixel(im, x, y, r, g, b)
		}
	}
	return im
}

// refSplit cuts the Y, Cb and Cr planes of a w×h image from planes.
func refSplit(planes []uint8, w, h int) [][]uint8 {
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	return [][]uint8{planes[:n], planes[n : n+cn], planes[n+cn : n+2*cn]}
}

// refDecode decodes the first k scans of a container, every scan data
// holds for k = 0: the base scan's planes, delta-coded in bands of 16 luma
// rows, then a bit of each value from each refinement scan.
func refDecode(data []byte, k int) (*Image, error) {
	w, h, quality, scans, present, err := refParse(data)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = present
	}
	if k < 1 || k > len(scans) || scans[k-1].planes[2] == nil {
		return nil, fmt.Errorf("%d of %d scans", present, len(scans))
	}
	planes := make([]uint8, w*h+2*((w+1)/2)*((h+1)/2))
	split := refSplit(planes, w, h)
	for j, s := range scans[:k] {
		if crc32.Checksum(slices.Concat(s.planes[:]...), crcTable) != s.crc {
			return nil, fmt.Errorf("scan %d CRC mismatch", j)
		}
		for p, values := range split {
			n, band := refPlaneBytes(w, h, p, j)
			got, err := refBands(s.planes[p], s.bits[p], n, band)
			if err != nil {
				return nil, fmt.Errorf("scan %d plane %d: %v", j, p, err)
			}
			if j == 0 {
				copy(values, got)
				refDeltaDecode(values, []int{w, (w + 1) / 2, (w + 1) / 2}[p], []int{16, 8, 8}[p])
				continue
			}
			for i := range values {
				values[i] = values[i]<<1 | got[i/8]>>(i%8)&1
			}
			for i := len(values); i < 8*len(got); i++ {
				if got[i/8]>>(i%8)&1 != 0 {
					return nil, fmt.Errorf("scan %d plane %d: pad bit %d set", j, p, i)
				}
			}
		}
	}
	yShift, cShift := shifts(quality)
	extra := uint(len(scans) - k)
	return refPlanesToImage(w, h, yShift+extra, cShift+extra, planes), nil
}

var (
	// The luma planes of 1×1, 3×5, 7×7 and 161×163 hold 1, 7, 1 and 3 values
	// mod 8, their chroma planes 1, 6, 0 and 2: what a bit plane's last byte
	// holds.
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
			for scans := 1; scans <= MaxScans; scans++ {
				prog, err := EncodeProgressive(im, q, scans)
				if err != nil {
					t.Fatalf("%dx%d/q%d/L%d: %v", w, h, q, scans, err)
				}
				for k := 1; k <= scans; k++ {
					name := fmt.Sprintf("%dx%d/q%d/L%d/k%d", w, h, q, scans, k)
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
					if got, err = Decode(prefix); err != nil || !got.Equal(want) {
						t.Fatalf("%s: Decode of the prefix: %v, or it differs from the reference", name, err)
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
// outlive every change of the stored form; the stored digests are those of
// SJPG version 4 at one scan and at MaxScans.
func TestGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		w, h, quality int
		detail        float64
		one, deep     string // encoded bytes at L = 1 and L = MaxScans
		pixels        string // Decode, then DecodeAtFidelity k = 1..MaxScans
	}{
		{seed: 1, w: 160, h: 161, quality: 80, detail: 0.5,
			one: "547ddd765fc2ab06", deep: "bf695bad823ef010", pixels: "cca12a6e5f0185ec"},
		{seed: 2, w: 333, h: 250, quality: 95, detail: 0.9,
			one: "3e3350071489fd91", deep: "ecd70685e491467c", pixels: "a03d1547a4ceb6ad"},
		{seed: 3, w: 640, h: 480, quality: 40, detail: 0.2,
			one: "ad194c394c90f001", deep: "f73f294e84372bf8", pixels: "4f8d8ca9b8699bfd"},
	} {
		im := synthFor(t, c.seed, c.w, c.h, c.detail)
		one, err := Encode(im, c.quality)
		if err != nil {
			t.Fatal(err)
		}
		deep, err := EncodeProgressive(im, c.quality, MaxScans)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(one)
		if err != nil {
			t.Fatal(err)
		}
		pix := [][]byte{dec.Pix}
		for k := 1; k <= MaxScans; k++ {
			d, err := DecodeAtFidelity(deep, k)
			if err != nil {
				t.Fatal(err)
			}
			pix = append(pix, d.Pix)
		}
		got := [3]string{fnvHex(one), fnvHex(deep), fnvHex(pix...)}
		if want := [3]string{c.one, c.deep, c.pixels}; got != want {
			t.Errorf("seed %d: digests (one, deep, pixels) = %q, want %q", c.seed, got, want)
		}
	}
}
