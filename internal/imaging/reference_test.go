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
// fold, reading each unit's parts one plane at a time. It shares no code with the product and exists only so the production
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

// refScan is one scan of a container as the index describes it: its CRC, its
// bytes (nil where data ends before them), its tables' size and each of its
// units' length in bits.
type refScan struct {
	crc    uint32
	bytes  []byte
	tables int
	bits   []int
}

// refGeometry is a w×h image's planes: plane p's values a row, rows, and
// rows and columns a band and a strip.
func refGeometry(w, h, p int) (stride, rows, band, strip int) {
	if p > 0 {
		return (w + 1) / 2, (h + 1) / 2, 8, 32
	}
	return w, h, 16, 64
}

// refUnit is one unit of a scan: each plane's part, the rect of its values in
// scan 0 or its bytes of the bit plane in a refinement scan.
type refUnit [3]struct{ top, left, rows, cols, lo, hi int }

// refUnits lists the units of scan j of a w×h image in the order of its
// codes: strip by strip in band by band, or in a refinement scan bands
// across the width.
func refUnits(w, h, j int) (units []refUnit) {
	bands := (h + 15) / 16
	strips := (w + 63) / 64
	if j > 0 {
		strips = 1
	}
	for b := 0; b < bands; b++ {
		for s := 0; s < strips; s++ {
			var u refUnit
			for p := range u {
				stride, rows, band, strip := refGeometry(w, h, p)
				part := &u[p]
				part.top, part.left = b*band, s*strip
				part.rows, part.cols = min(band, rows-part.top), min(strip, stride-part.left)
				if j > 0 {
					n := (stride*rows + 7) / 8
					part.lo, part.hi = b*band*stride/8, min((b+1)*band*stride/8, n)
				}
			}
			units = append(units, u)
		}
	}
	return units
}

// size returns the bytes of the part: its values, or its bytes of the bit
// plane.
func (u refUnit) size(p, j int) int {
	if j > 0 {
		return u[p].hi - u[p].lo
	}
	return u[p].rows * u[p].cols
}

// refTablesLen is how many bytes a plane's tables take as their bytes say:
// 0 for stored; H, H bytes, R, R bytes.
func refTablesLen(src []byte) int {
	if len(src) == 0 || src[0] == 0 {
		return min(len(src), 1)
	}
	r := 1 + int(src[0])
	if r >= len(src) {
		return len(src) + 1
	}
	return r + 1 + int(src[r])
}

// refParse reads a container the way codec.go's comment lays it out and
// returns its scans and how many of them data holds whole (−1: it ends inside
// one). Every unit must be able to yield its values, a run a bit at least; a
// scan may take at most its planes' bytes and a marker each, and the tables
// of a scan data holds must take the bytes the index says.
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
		bound := 0
		for p := range 3 {
			stride, rows, _, _ := refGeometry(w, h, p)
			n := stride * rows
			if j > 0 {
				n = (n + 7) / 8
			}
			bound += n + 1
		}
		if s.tables = next(); bad != nil || s.tables < 3 || s.tables > 3*145 {
			return fail(fmt.Errorf("scan %d: no tables", j))
		}
		total := 0
		for _, u := range refUnits(w, h, j) {
			b := next()
			if n := u.size(0, j) + u.size(1, j) + u.size(2, j); bad != nil || b*258 < n {
				return fail(fmt.Errorf("scan %d: %d bits cannot yield %d bytes", j, b, n))
			}
			s.bits, total = append(s.bits, b), total+b
		}
		n := s.tables + (total+7)/8
		if n > bound {
			return fail(fmt.Errorf("scan %d: %d bytes, over %d", j, n, bound))
		}
		start := ends[len(ends)-1]
		if start+s.tables <= len(body) {
			t, p := 0, 0
			for ; p < 3 && t < s.tables; p++ {
				t += refTablesLen(body[start+t : start+s.tables])
			}
			if p != 3 || t != s.tables {
				return fail(fmt.Errorf("scan %d: tables of %d bytes, not %d", j, t, s.tables))
			}
		}
		if start+n <= len(body) {
			s.bytes = body[start : start+n]
		}
		scans = append(scans, s)
		ends = append(ends, start+n)
	}
	if len(index) != 0 || len(body) > ends[l] {
		return fail(errors.New("trailing bytes"))
	}
	return w, h, quality, scans, slices.Index(ends, len(body)), nil
}

// refScanParts decodes scan j of a w×h image: each unit's parts one after
// another, a stored plane's eight bits a value, refusing each unit unless it
// ends where the next starts, and the scan unless its padding is zero. It
// returns each plane's parts in unit order.
func refScanParts(s refScan, w, h, j int) ([3][]byte, error) {
	var parts [3][]byte
	var symbols [3]map[refCodeword]int
	src := s.bytes[:s.tables]
	for p := range symbols {
		if src[0] == 0 {
			src = src[1:]
			continue
		}
		var err error
		if symbols[p], src, err = refTables(src); err != nil {
			return parts, fmt.Errorf("plane %d: %v", p, err)
		}
	}
	codes, bit := s.bytes[s.tables:], 0
	for k, u := range refUnits(w, h, j) {
		end := bit + s.bits[k]
		for p := range parts {
			part := make([]byte, u.size(p, j))
			if symbols[p] == nil {
				for i := range part {
					for b := 0; b < 8; b, bit = b+1, bit+1 {
						if bit/8 >= len(codes) {
							return parts, fmt.Errorf("unit %d plane %d: stored part cut short", k, p)
						}
						part[i] = part[i]<<1 | codes[bit/8]>>(7-bit%8)&1
					}
				}
			} else {
				var err error
				if bit, err = refSymbols(symbols[p], codes, bit, part); err != nil {
					return parts, fmt.Errorf("unit %d plane %d: %v", k, p, err)
				}
			}
			parts[p] = append(parts[p], part...)
		}
		if bit != end {
			return parts, fmt.Errorf("unit %d ends at bit %d, not %d", k, bit, end)
		}
	}
	return parts, refPadding(codes, bit)
}

// refScatter lays a plane's parts of scan 0, in unit order, out as the plane.
func refScatter(parts []byte, w, h, p int) []byte {
	stride, rows, _, _ := refGeometry(w, h, p)
	plane := make([]byte, stride*rows)
	for _, u := range refUnits(w, h, 0) {
		for r := 0; r < u[p].rows; r++ {
			for c := 0; c < u[p].cols; c++ {
				plane[(u[p].top+r)*stride+u[p].left+c], parts = parts[0], parts[1:]
			}
		}
	}
	return plane
}

// refDeltaDecode undoes refDeltaEncode: in a part, the strip-band a value's
// row and column fall in, a value predicts from its left neighbour, the
// first of a row from the one above, and the first of the part from mid.
func refDeltaDecode(plane []uint8, stride, band, strip int, mid uint8) {
	for i := 0; i < len(plane); i++ {
		switch r, c := i/stride, i%stride; {
		case c%strip != 0:
			plane[i] += plane[i-1]
		case r%band != 0:
			plane[i] += plane[i-stride]
		default:
			plane[i] += mid
		}
	}
}

func refDeltaEncode(plane []uint8, stride, band, strip int, mid uint8) {
	for i := len(plane) - 1; i >= 0; i-- {
		switch r, c := i/stride, i%stride; {
		case c%strip != 0:
			plane[i] -= plane[i-1]
		case r%band != 0:
			plane[i] -= plane[i-stride]
		default:
			plane[i] -= mid
		}
	}
}

// refMiddle is the middle of the values plane p of scan 0 holds in a
// container of scans scans at quality.
func refMiddle(quality, scans, p int) uint8 {
	yShift, cShift := shifts(quality)
	if p > 0 {
		yShift = cShift
	}
	return 128 >> (yShift + uint(scans-1))
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
// holds for k = 0: the base scan's planes, delta-coded in strip-bands of 64
// luma columns and 16 luma rows from the middle of their values, then a bit of each value from each
// refinement scan.
func refDecode(data []byte, k int) (*Image, error) {
	w, h, quality, scans, present, err := refParse(data)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = present
	}
	if k < 1 || k > len(scans) || scans[k-1].bytes == nil {
		return nil, fmt.Errorf("%d of %d scans", present, len(scans))
	}
	planes := make([]uint8, w*h+2*((w+1)/2)*((h+1)/2))
	split := refSplit(planes, w, h)
	for j, s := range scans[:k] {
		if crc32.Checksum(s.bytes, crcTable) != s.crc {
			return nil, fmt.Errorf("scan %d CRC mismatch", j)
		}
		parts, err := refScanParts(s, w, h, j)
		if err != nil {
			return nil, fmt.Errorf("scan %d: %v", j, err)
		}
		for p, values := range split {
			if j == 0 {
				copy(values, refScatter(parts[p], w, h, p))
				stride, _, band, strip := refGeometry(w, h, p)
				refDeltaDecode(values, stride, band, strip, refMiddle(quality, len(scans), p))
				continue
			}
			got := parts[p]
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
	refDims      = [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {7, 7}, {15, 17}, {65, 33}, {160, 161}, {161, 163}, {640, 480}}
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

// TestDeltaMatchesReference: deltaEncode over each part of a plane equals
// the per-byte pass, and undoPrediction inverts it — on every row through the
// last column, and on any subset of rows from any strip's first column
// through any column, where each listed value is the plane value and each one
// outside them is still the residual — each strip's first column aside, on
// every row from its band's first to a listed row below. A tall list (shift
// 1) names each row twice. Bands and strips are one value, a few, or the
// whole plane.
func TestDeltaMatchesReference(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {13, 7}, {64, 33}} {
		for _, band := range []int{1, 4, maxDim} {
			for _, strip := range []int{1, 4, maxDim} {
				assertDeltaMatches(t, dim[0], dim[1], band, strip)
			}
		}
	}
}

func assertDeltaMatches(t *testing.T, stride, rows, band, strip int) {
	t.Helper()
	name := fmt.Sprintf("%dx%d in bands of %d and strips of %d", stride, rows, band, strip)
	orig := make([]uint8, stride*rows)
	for i := range orig {
		orig[i] = uint8(i*131 + i>>3)
	}
	want := append([]uint8(nil), orig...)
	refDeltaEncode(want, stride, band, strip, 0)
	for top := 0; top < rows; top += band {
		for left := 0; left < stride; left += strip {
			h, w := min(band, rows-top), min(strip, stride-left)
			part := make([]uint8, 0, h*w)
			for r := top; r < top+h; r++ {
				part = append(part, orig[r*stride+left:r*stride+left+w]...)
			}
			deltaEncode(part, w, 0)
			for r := top; r < top+h; r++ {
				if !bytes.Equal(part[(r-top)*w:(r-top+1)*w], want[r*stride+left:r*stride+left+w]) {
					t.Fatalf("deltaEncode %s: the part at (%d, %d) differs from the reference", name, left, top)
				}
			}
		}
	}
	resid := append([]uint8(nil), want...)
	refDeltaDecode(want, stride, band, strip, 0)
	if !bytes.Equal(want, orig) {
		t.Errorf("refDeltaDecode %s does not invert refDeltaEncode", name)
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
			for _, cols := range [][2]int{{0, 0}, {0, stride / 2}, {0, stride - 1}, {(stride - 1) / strip * strip, stride - 1}, {stride / 2 / strip * strip, stride / 2}} {
				first, last := cols[0], cols[1]
				tall := list
				if shift == 1 { // rows 2r and 2r+1 of the taller plane
					tall = nil
					for _, r := range list {
						tall = append(tall, 2*r, 2*r+1)
					}
				}
				got := append([]uint8(nil), resid...)
				undoPrediction(got, stride, tall, shift, first, last, band, strip, refinement{})
				listed, chained := map[int]bool{}, map[int]bool{}
				for _, r := range list {
					listed[int(r)] = true
					for c := int(r) / band * band; c <= int(r); c++ {
						chained[c] = true
					}
				}
				for i, v := range got {
					r, c := i/stride, i%stride
					want := resid[i]
					if first <= c && c <= last && (listed[r] || c%strip == 0 && chained[r]) {
						want = orig[i]
					}
					if v != want {
						t.Fatalf("undoPrediction %s, rows %v>>%d from column %d through %d: (%d, %d) = %d, want %d",
							name, tall, shift, first, last, c, r, v, want)
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
// SJPG version 5 at one scan and at MaxScans.
func TestGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		w, h, quality int
		detail        float64
		one, deep     string // encoded bytes at L = 1 and L = MaxScans
		pixels        string // Decode, then DecodeAtFidelity k = 1..MaxScans
	}{
		{seed: 1, w: 160, h: 161, quality: 80, detail: 0.5,
			one: "f88939c345f29fee", deep: "419a7be1bdec769b", pixels: "cca12a6e5f0185ec"},
		{seed: 2, w: 333, h: 250, quality: 95, detail: 0.9,
			one: "88740dc1a13c0a2f", deep: "7878c4bfd1c36bba", pixels: "a03d1547a4ceb6ad"},
		{seed: 3, w: 640, h: 480, quality: 40, detail: 0.2,
			one: "eb086807b0b9550b", deep: "d225a6651d12178e", pixels: "4f8d8ca9b8699bfd"},
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
