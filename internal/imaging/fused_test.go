package imaging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"image/color"
	"math/rand/v2"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/raceflag"
)

// refCropResize is a float64 bilinear resample of RGB pixels, the kernel
// RandomResizedCrop ran before it resampled the decoded planes. The packed
// crops TestPackedGoldenDigests pins (benchCrop) and Resize are written in
// it, so their bytes do not move with the live kernel.
func refCropResize(im *Image, rect Rect, w, h int) *Image {
	out := MustNew(w, h)
	for y := 0; y < h; y++ {
		y0, y1, fy := floatTap(y, rect.H, h)
		for x := 0; x < w; x++ {
			x0, x1, fx := floatTap(x, rect.W, w)
			o00 := im.offset(rect.X+x0, rect.Y+y0)
			o10 := im.offset(rect.X+x1, rect.Y+y0)
			o01 := im.offset(rect.X+x0, rect.Y+y1)
			o11 := im.offset(rect.X+x1, rect.Y+y1)
			d := out.offset(x, y)
			for c := 0; c < Channels; c++ {
				top := float64(im.Pix[o00+c])*(1-fx) + float64(im.Pix[o10+c])*fx
				bot := float64(im.Pix[o01+c])*(1-fx) + float64(im.Pix[o11+c])*fx
				v := top*(1-fy) + bot*fy
				out.Pix[d+c] = uint8(v + 0.5)
			}
		}
	}
	return out
}

// floatTap is output i's taps among n source samples resampled to out, in
// float64: it samples at ((i + 0.5)·n/out − 0.5), clamped at both edges, with
// that position's fraction as the weight.
func floatTap(i, n, out int) (lo, hi int, f float64) {
	src := max((float64(i)+0.5)*float64(n)/float64(out)-0.5, 0)
	lo = int(src)
	return lo, min(lo+1, n-1), src - float64(lo)
}

// refResample is ycc.cropResize written out plainly, sharing none of its code
// but dequant: each output pixel's taps and weights from their definition
// (axis.fill), the four luma samples and the chroma sample under each
// dequantized to 0–255, blended as the products of integer weights out of
// weightOne, rounded half up, and converted by color.YCbCrToRGB. p must hold
// plane values, as DecodePlanes leaves them.
func refResample(p ycc, rect Rect, w, h int) *Image {
	tap := func(i, n, out int) (lo, hi, f int) {
		num := max((2*i+1)*n-out, 0)
		lo = num / (2 * out)
		return lo, min(lo+1, n-1), ((num-lo*2*out)*weightOne + out) / (2 * out)
	}
	return resampleWith(p, rect, w, h, func(i, n, out int) (int, int, float64) {
		lo, hi, f := tap(i, n, out)
		return lo, hi, float64(f)
	}, func(v float64) uint8 { return uint8((int(v) + weightOne*weightOne/2) / (weightOne * weightOne)) }, weightOne)
}

// oracleResample is refResample in float64: floatTap's taps and unrounded
// weights, each of Y, Cb and Cr rounded half up once blended, and the same
// conversion. Where every weight is a multiple of 1/weightOne — an output
// side of 128 — the kernel's integers are exact and the two agree everywhere.
func oracleResample(p ycc, rect Rect, w, h int) *Image {
	return resampleWith(p, rect, w, h, floatTap, func(v float64) uint8 { return uint8(v + 0.5) }, 1)
}

// resampleWith is the loop both references share: the taps from tap, weights
// out of one, and round to turn a blend scaled by one² into a sample.
func resampleWith(p ycc, rect Rect, w, h int, tap func(i, n, out int) (int, int, float64), round func(float64) uint8, one float64) *Image {
	out := MustNew(w, h)
	cw := (p.w + 1) / 2
	for y := 0; y < h; y++ {
		y0, y1, fy := tap(y, rect.H, h)
		y0, y1 = y0+rect.Y, y1+rect.Y
		for x := 0; x < w; x++ {
			x0, x1, fx := tap(x, rect.W, w)
			x0, x1 = x0+rect.X, x1+rect.X
			blend := func(plane []uint8, stride int, shift uint, sub int) uint8 {
				at := func(x, y int) float64 { return float64(dequant(plane[(y>>sub)*stride+x>>sub], shift)) }
				top := at(x0, y0)*(one-fx) + at(x1, y0)*fx
				bot := at(x0, y1)*(one-fx) + at(x1, y1)*fx
				return round(top*(one-fy) + bot*fy)
			}
			r, g, b := color.YCbCrToRGB(blend(p.y, p.w, p.yShift, 0), blend(p.cb, cw, p.cShift, 1), blend(p.cr, cw, p.cShift, 1))
			setPixel(out, x, y, r, g, b)
		}
	}
	return out
}

// The grid the resample kernel is compared over: degenerate, odd and
// photo-sized sources, and heights around SJPG's bands of 16 rows; the training crop sizes; and, per seed, one rect of
// each relation to the output size.
var (
	gridDims  = [][2]int{{1, 1}, {9, 1}, {1, 9}, {12, 16}, {15, 17}, {13, 33}, {333, 251}, {640, 480}}
	gridCrops = []int{32, 128, 224}
)

// gridSeeds is how many rects to draw per (stream, crop size) of a w×h
// source: 40, four when in a hurry, and no more than the source has pixels —
// a 1×1 image has one rect.
func gridSeeds(w, h int) int {
	if hurried() {
		return min(4, w*h) // one rect of each kind
	}
	return min(40, w*h)
}

// hurried: -short, or the race detector's ≈10× on every encode and resample.
func hurried() bool { return testing.Short() || raceflag.Enabled }

// gridRect draws a rect inside w×h: exactly out×out where that fits (every
// weight 0), smaller than out on both sides (every source pixel reused), at
// least 2·out on both sides where that fits (sparse taps), or anything at
// all.
func gridRect(rng *rand.Rand, w, h, out, kind int) Rect {
	side := func(n int) int {
		switch kind {
		case 0:
			return min(out, n)
		case 1:
			return 1 + rng.IntN(min(out-1, n))
		case 2:
			lo := min(2*out, n)
			return lo + rng.IntN(n-lo+1)
		}
		return 1 + rng.IntN(n)
	}
	r := Rect{W: side(w), H: side(h)}
	r.X, r.Y = rng.IntN(w-r.W+1), rng.IntN(h-r.H+1)
	return r
}

// decodePlanes is Decode's first step: every unit of every scan data holds.
func decodePlanes(data []byte) (ycc, error) {
	c, err := whole(data)
	if err != nil {
		return ycc{}, err
	}
	return c.decode(data, c.present, gridOf(c.w, c.h).all())
}

// fusedStream is one accepted stream with both forms of its planes: as the
// decode step leaves them (the fused kernel's input) and as values
// (DecodePlanes's, the references' input).
type fusedStream struct {
	name    string
	data    []byte // what the entry point under test is handed
	scans   int    // L: 1, or MaxScans for the prefixes of a deep container
	shallow bool   // a prefix short of every scan: the full container's planes under wider shifts
	values  *Planes
	plane   ycc // as the first decode step left them; crops read copies (planes)
}

// planes returns a copy of s.plane for one cropResize, which undoes the row
// prediction only where it reads and so leaves the planes no use to the next.
// The caller releases it.
func (s *fusedStream) planes() ycc {
	p := s.plane
	p.buf = bufpool.GetBytes(len(s.plane.buf))
	copy(p.buf, s.plane.buf)
	at := func(b []byte) []byte { o := cap(s.plane.buf) - cap(b); return p.buf[o : o+len(b)] }
	p.y, p.cb, p.cr = at(p.y), at(p.cb), at(p.cr)
	for i := range p.ref {
		p.ref[i].packed = at(p.ref[i].packed)
	}
	return p
}

// fusedStreams encodes im at quality q in one scan and as every prefix of a
// MaxScans-deep container.
func fusedStreams(t *testing.T, im *Image, q int) []fusedStream {
	t.Helper()
	name := fmt.Sprintf("%dx%d/q%d", im.W, im.H, q)
	one, err := Encode(im, q)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := EncodeProgressive(im, q, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	datas, names := [][]byte{one}, []string{name + "/L1"}
	for k := 1; k <= MaxScans; k++ {
		prefix, err := SlicePrefix(deep, k)
		if err != nil {
			t.Fatal(err)
		}
		datas, names = append(datas, prefix), append(names, fmt.Sprintf("%s/L%d-k%d", name, MaxScans, k))
	}
	out := make([]fusedStream, len(datas))
	for i, data := range datas {
		values, err := DecodePlanes(data)
		if err != nil {
			t.Fatal(err)
		}
		plane, err := decodePlanes(data)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fusedStream{name: names[i], data: data, scans: min(i, 1)*(MaxScans-1) + 1, shallow: i > 0 && i < MaxScans, values: values, plane: plane}
	}
	return out
}

func (s *fusedStream) release() { s.plane.release() }

// TestDecodeCropResizeMatchesReference: the kernel equals refResample byte
// for byte over the whole grid — every geometry, quantization band, scan
// depth, crop size and relation of crop to output — from the planes as the
// decode step leaves them, undone only where it reads, and the two exported
// entry points reach it. Shallow prefixes differ from the full container only
// in the dequantization tables, so they draw fewer rects.
func TestDecodeCropResizeMatchesReference(t *testing.T) {
	for _, dim := range gridDims {
		w, h := dim[0], dim[1]
		if hurried() && w*h > 333*251 {
			continue
		}
		im := synthFor(t, uint64(w*1000+h), w, h, 0.6)
		for _, q := range refQualities {
			for _, s := range fusedStreams(t, im, q) {
				seeds := gridSeeds(w, h)
				if s.shallow {
					seeds = min(8, seeds)
				}
				for _, out := range gridCrops {
					for seed := 0; seed < seeds; seed++ {
						rng := rand.New(rand.NewPCG(uint64(seed), uint64(out)))
						rect := gridRect(rng, w, h, out, seed%4)
						ow, oh := out, out
						if seed%8 >= 4 { // not only square outputs
							ow, oh = 1+rng.IntN(out), 1+rng.IntN(out)
						}
						want := refResample(s.values.p, rect, ow, oh)
						plane := s.planes()
						got, err := plane.cropResize(rect, ow, oh)
						plane.release()
						if err != nil {
							t.Fatalf("%s: %+v to %dx%d: %v", s.name, rect, ow, oh, err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s: crop %+v to %dx%d differs from the reference", s.name, rect, ow, oh)
						}
						if seed == 3 { // once per crop size through the exported entry points
							entry, err := DecodeCropResize(s.data, rect, ow, oh)
							if err != nil || !entry.Equal(want) {
								t.Fatalf("%s: DecodeCropResize: err %v, equal %v", s.name, err, err == nil && entry.Equal(want))
							}
							entry.Release()
							if entry, err = s.values.CropResize(rect, ow, oh); err != nil || !entry.Equal(want) {
								t.Fatalf("%s: Planes.CropResize: err %v, equal %v", s.name, err, err == nil && entry.Equal(want))
							}
							entry.Release()
						}
						got.Release()
					}
				}
				s.release()
			}
		}
	}
}

// TestBenchSetMatchesReference holds the kernel to refResample on the crops
// the live tier takes — benchSet's objects and rects, at the output sides the
// workloads train at.
func TestBenchSetMatchesReference(t *testing.T) {
	set, err := benchSet()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range set {
		if hurried() && i%8 != 0 {
			continue
		}
		pl, err := DecodePlanes(s.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []int{96, 128, 224} {
			got, err := DecodeCropResize(s.data, s.rect, out, out)
			if err != nil || !got.Equal(refResample(pl.p, s.rect, out, out)) {
				t.Fatalf("object %d: crop %+v to %d: err %v, or it differs from the reference", i, s.rect, out, err)
			}
			got.Release()
		}
	}
}

// TestResampleOracle: where every weight is a multiple of 1/weightOne (an
// output side of 128) the kernel is the float64 oracle, value for value; at
// 224 and 96, whose weights it rounds to 1/weightOne, at most 0.5 % of
// benchSet's values differ, none by more than 3.
func TestResampleOracle(t *testing.T) {
	set, err := benchSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []int{128, 224, 96} {
		differ, worst, total := 0, 0, 0
		for i, s := range set {
			if hurried() && i%8 != 0 {
				continue
			}
			pl, err := DecodePlanes(s.data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pl.CropResize(s.rect, out, out)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range oracleResample(pl.p, s.rect, out, out).Pix {
				if d := int(got.Pix[k]) - int(v); d != 0 {
					differ, worst = differ+1, max(worst, d, -d)
				}
			}
			total += len(got.Pix)
			got.Release()
		}
		frac := float64(differ) / float64(total)
		t.Logf("out %d: %.3f %% of %d values differ from the float64 oracle, by at most %d", out, 100*frac, total, worst)
		if out == 128 && differ != 0 || worst > 3 || frac > 0.005 {
			t.Errorf("out %d: %d of %d values differ from the oracle (%.3f %%), by up to %d", out, differ, total, 100*frac, worst)
		}
	}
}

// TestPackedCropCap: benchSet's 128² crops pack to a mean of at most
// 18 657 B, what the RGB resample's crops packed to.
func TestPackedCropCap(t *testing.T) {
	crops, err := packSet()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range crops {
		total += PackedSize(c)
	}
	mean := float64(total) / float64(len(crops))
	t.Logf("mean packed 128² crop: %.0f B", mean)
	if mean > 18657 {
		t.Errorf("mean packed 128² crop %.0f B, over the RGB resample's 18 657", mean)
	}
}

// TestDecodeCropResizeEdgeTaps: rects whose taps are only the first row, only
// the last row of an odd height, only column 0, or reach the last column of
// an odd width — where the column-0 chain and the running sums start and stop
// — at one scan, and of a MaxScans-deep container at one scan (no refinement
// bits) and at MaxScans (bits folded into each value restored, from every
// alignment of a row to the bytes of the bit planes), against refResample
// over planes undone everywhere. Odd sides end in a chroma sample that covers
// one pixel, not two. Rects also start and end on each band edge's first and
// last rows and one row either side, or fill one band; heights run under one
// band, one band, one row over, and two bands one row short and one over, the
// one-scan ones each also as noise, whose luma plane is stored.
func TestDecodeCropResizeEdgeTaps(t *testing.T) {
	for _, dim := range [][2]int{{15, 17}, {333, 251}, {1, 9}, {9, 1}, {12, 15}, {12, 16}, {11, 31}, {13, 33}} {
		w, h := dim[0], dim[1]
		rects := []Rect{
			{W: w, H: 1},                     // row 0
			{Y: h - 1, W: w, H: 1},           // the last row
			{W: 1, H: h},                     // column 0
			{X: w - 1, W: 1, H: h},           // the last column
			{X: w / 2, W: w - w/2, H: 1},     // row 0, through the last column
			{X: w - 1, Y: h - 1, W: 1, H: 1}, // the last pixel
			{Y: h / 2, W: max(w/2, 1), H: 1}, // one inner row, short of the last column
			{X: w / 3, Y: h / 3, W: 1, H: 1}, // one inner pixel
			{W: w, H: h},                     // everything
			{X: w - 1, W: 1, H: max(h/2, 1)}, // the last column, short of the last row
			{Y: h - 1, W: max(w-1, 1), H: 1}, // the last row, short of the last column
			{X: w / 2, Y: h / 2, W: w - w/2, H: h - h/2},
		}
		for edge := bandRows; edge < h; edge += bandRows {
			rects = append(rects, Rect{Y: edge, W: w, H: min(bandRows, h-edge)}) // one band
			for d := -1; d <= 1; d++ {
				if first, last := edge+d, edge-1+d; first < h {
					rects = append(rects,
						Rect{Y: first, W: w, H: min(3, h-first)},                     // first row at the edge
						Rect{X: w / 2, Y: max(last-2, 0), W: 1, H: min(last, 2) + 1}) // last row at the edge
				}
			}
		}
		images := []*Image{synthFor(t, uint64(w*1000+h), w, h, 0.6)}
		if h >= 15 && w > 1 {
			images = append(images, noiseImage(w, h, uint64(w*1000+h)))
		}
		for i, im := range images {
			for _, s := range fusedStreams(t, im, 80) {
				if s.shallow && s.plane.ref[0].planes > 0 || s.scans > 1 && i > 0 {
					s.release()
					continue // k = 1 and k = MaxScans cover both kinds of plane; noise is for stored planes
				}
				for _, rect := range rects {
					for _, out := range []int{1, 3, 32} {
						want := refResample(s.values.p, rect, out, out)
						got, err := DecodeCropResize(s.data, rect, out, out)
						if err != nil || !got.Equal(want) {
							t.Fatalf("%s: crop %+v to %d: err %v, equal %v", s.name, rect, out, err, err == nil && got.Equal(want))
						}
						got.Release()
					}
				}
				s.release()
			}
		}
	}
}

// decodeThenCropResize is the unfused path: the planes, then a crop of them.
func decodeThenCropResize(data []byte, rect Rect, w, h int) (*Image, error) {
	pl, err := DecodePlanes(data)
	if err != nil {
		return nil, err
	}
	return pl.CropResize(rect, w, h)
}

// over frames scans of three planes each, written as codePlanes writes a
// plane alone — its tables, then its codes — as a container claiming w×h:
// each scan's tables, then its units, each plane's part where the reference
// decoder finds it ending in that plane's codes (a stored plane's, eight bits
// a value later). A part it cannot decode takes the rest of its plane's
// codes, and the last part of the last plane the rest after it, padding
// included. The index holds each scan's CRC, its tables' bytes and each
// unit's length in bits.
func over(w, h int, scans ...[3][]byte) []byte {
	var index, body []byte
	for j, scan := range scans {
		at, start := len(index), len(body)
		index = append(index, 0, 0, 0, 0)
		var codes [3][]byte
		var symbols [3]map[refCodeword]int
		tables := 0
		for i, plane := range scan {
			n := min(refTablesLen(plane), len(plane))
			body, tables, codes[i] = append(body, plane[:n]...), tables+n, plane[n:]
			if len(plane) > 0 && plane[0] != 0 {
				symbols[i], _, _ = refTables(plane) // nil: no code, so no part ends
			}
		}
		index = binary.AppendUvarint(index, uint64(tables))
		var out bitWriter
		var bit [3]int
		units := refUnits(w, h, j)
		for k, u := range units {
			from := 8*len(out.out) - (8-int(out.n))%8
			for i, plane := range scan {
				end := 8 * len(codes[i])
				switch n := u.size(i, j); {
				case k == len(units)-1 && i == 2:
				case len(plane) > 0 && plane[0] == 0:
					end = min(bit[i]+8*n, end)
				case symbols[i] != nil:
					if e, err := refSymbols(symbols[i], codes[i], bit[i], make([]byte, n)); err == nil {
						end = e
					}
				}
				for ; bit[i] < end; bit[i]++ {
					out.bits(uint(codes[i][bit[i]/8]>>(7-bit[i]%8)&1), 1)
				}
			}
			index = binary.AppendUvarint(index, uint64(8*len(out.out)-(8-int(out.n))%8-from))
		}
		body = append(body, out.out...)
		binary.BigEndian.PutUint32(index[at:], crc32.Checksum(body[start:], crcTable))
	}
	out := append([]byte(sjpgMagic), sjpgVersion, DefaultQuality)
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = binary.AppendUvarint(append(out, byte(len(scans))), uint64(len(index)))
	return append(append(out, index...), body...)
}

// scansAt returns where the scans of a container start, after its index.
func scansAt(data []byte) int {
	n, k := binary.Uvarint(data[headerSize:])
	return headerSize + k + int(n)
}

// stored is one stored plane holding b.
func stored(b ...byte) []byte { return append([]byte{0}, b...) }

// TestFusedRejectionParity: on the same bytes DecodeCropResize returns
// Decode's error, word for word, having drawn no more from the buffer arena
// than it did — nothing for a header, an index or a CRC, the planes alone for
// a bad plane — and on an accepted stream with a bad rect, CropResize's error
// before any buffer.
func TestFusedRejectionParity(t *testing.T) {
	type parityCase struct {
		name string
		data []byte
		want error // nil: accepted
	}
	var cases []parityCase
	add := func(name string, data []byte, want error) { cases = append(cases, parityCase{name, data, want}) }

	// planes_test.go's hand-built planes as the Cr plane of a one-scan
	// container and as the Cr bit plane of a refinement scan (planeStreams),
	// each with the reference decoder's verdict on it.
	for _, c := range inflateRejections() {
		base, refine := planeStreams(c.stream, c.n)
		for name, data := range map[string][]byte{"base/": base, "refinement/": refine} {
			var want error
			if _, err := refDecode(data, 0); err != nil {
				want = ErrCorrupt
			}
			add(name+c.name, data, want)
		}
	}

	// Real streams, damaged where each check looks.
	im := synthFor(t, 5, 16, 12, 0.5)
	one, err := Encode(im, 80)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := EncodeProgressive(im, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(data []byte, at int, v byte) []byte {
		out := bytes.Clone(data)
		out[at] = v
		return out
	}
	for name, data := range map[string][]byte{"L1": one, "L3": deep} {
		add(name+"/intact", data, nil)
		for n := 0; n < scansAt(data); n++ {
			add(fmt.Sprintf("%s/cut at header or index byte %d", name, n), data[:n], ErrCorrupt)
		}
		add(name+"/cut at the scans", data[:scansAt(data)], ErrTruncated)
		add(name+"/cut mid-scan", data[:len(data)-3], ErrTruncated)
		add(name+"/version", mutate(data, 4, 9), ErrUnsupported)
		add(name+"/quality", mutate(data, 5, 0), ErrCorrupt)
		add(name+"/scan count", mutate(data, 14, MaxScans+1), ErrCorrupt)
		add(name+"/a first table over 128 bytes", mutate(data, scansAt(data), 129), ErrCorrupt)
		add(name+"/a byte after the scans", append(bytes.Clone(data), 0), ErrCorrupt)
		add(name+"/CRC mismatch", mutate(data, len(data)-1, data[len(data)-1]^0x40), ErrCorrupt)
		add(name+"/dims over the cap", mutate(data, 7, 0x80), ErrCorrupt) // 8 388 624 × 12
		implausible := bytes.Clone(data)
		copy(implausible[6:14], []byte{0, 0, 0x3e, 0x80, 0, 0, 0x3e, 0x80}) // 16000²
		add(name+"/implausible dims", implausible, ErrCorrupt)
	}
	base, bits := [3][]byte{stored(7), stored(7), stored(7)}, [3][]byte{stored(0b001), stored(0b001), stored(0b001)}
	add("refinement bits", over(1, 1, base, bits), nil)
	add("refinement pad bits set", over(1, 1, base, [3][]byte{stored(0b011), stored(0b001), stored(0b001)}), ErrCorrupt)

	gets := func(f func() (*Image, error)) (*Image, error, uint64) {
		before := bufpool.ByteStats().Gets
		im, err := f()
		return im, err, bufpool.ByteStats().Gets - before
	}
	rect := Rect{W: 1, H: 1}
	for _, c := range cases {
		want, wantErr, wantGets := gets(func() (*Image, error) { return decodeThenCropResize(c.data, rect, 2, 2) })
		got, gotErr, gotGets := gets(func() (*Image, error) { return DecodeCropResize(c.data, rect, 2, 2) })
		switch {
		case !errors.Is(wantErr, c.want):
			t.Errorf("%s: the unfused path returns %v, the case expects %v", c.name, wantErr, c.want)
		case c.want == nil:
			if gotErr != nil || !got.Equal(want) {
				t.Errorf("%s: accepted unfused, fused err %v", c.name, gotErr)
			}
		case gotErr == nil || gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, c.want):
			t.Errorf("%s: fused err %v, unfused %v", c.name, gotErr, wantErr)
		case gotGets != wantGets || gotGets > 1:
			t.Errorf("%s: rejected after %d arena requests, unfused after %d, want the same and at most the planes", c.name, gotGets, wantGets)
		}
		want.Release()
		got.Release()
	}

	// An accepted stream under a rect or an output size no image would take:
	// CropResize's own error before any output image and before the planes,
	// which are sized only once the rect is accepted.
	for _, c := range []struct {
		rect Rect
		w, h int
	}{
		{Rect{X: 10, Y: 0, W: 7, H: 3}, 4, 4},
		{Rect{X: -1, Y: 0, W: 4, H: 4}, 4, 4},
		{Rect{W: 0, H: 4}, 4, 4},
		{Rect{W: 16, H: 13}, 4, 4},
		{Rect{W: 4, H: 4}, 0, 4},
		{Rect{W: 4, H: 4}, 4, -1},
	} {
		for _, data := range [][]byte{one, deep} {
			_, wantErr := decodeThenCropResize(data, c.rect, c.w, c.h)
			got, gotErr, n := gets(func() (*Image, error) { return DecodeCropResize(data, c.rect, c.w, c.h) })
			if got != nil || !errors.Is(gotErr, errBadDimensions) || gotErr.Error() != wantErr.Error() || n != 0 {
				t.Errorf("%+v to %dx%d: fused err %v after %d arena requests, unfused %v", c.rect, c.w, c.h, gotErr, n, wantErr)
			}
		}
	}
}
