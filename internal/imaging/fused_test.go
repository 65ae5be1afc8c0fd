package imaging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/raceflag"
)

// refCropResize is the per-pixel bilinear loop Resize and cropResizeInto each
// carried a copy of before both became blend over tap tables: every tap and
// weight recomputed per output pixel, every source pixel read through
// Image.offset. It exists only so blend has something other than itself to be
// compared with.
func refCropResize(im *Image, rect Rect, w, h int) *Image {
	out := MustNew(w, h)
	xRatio := float64(rect.W) / float64(w)
	yRatio := float64(rect.H) / float64(h)
	for y := 0; y < h; y++ {
		srcY := (float64(y)+0.5)*yRatio - 0.5
		if srcY < 0 {
			srcY = 0
		}
		y0 := int(srcY)
		y1 := y0 + 1
		if y1 >= rect.H {
			y1 = rect.H - 1
		}
		fy := srcY - float64(y0)
		for x := 0; x < w; x++ {
			srcX := (float64(x)+0.5)*xRatio - 0.5
			if srcX < 0 {
				srcX = 0
			}
			x0 := int(srcX)
			x1 := x0 + 1
			if x1 >= rect.W {
				x1 = rect.W - 1
			}
			fx := srcX - float64(x0)

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

// The grid the resample kernels are compared over: degenerate, odd and
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

// hurried: -short, or the race detector's ≈10× on every encode and blend.
func hurried() bool { return testing.Short() || raceflag.Enabled }

// gridRect draws a rect inside w×h: exactly out×out where that fits (the
// pure-copy path), smaller than out on both sides (every source pixel
// reused), at least 2·out on both sides where that fits (sparse taps), or
// anything at all.
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

// TestBlendMatchesReference: CropResize and Resize, now one tap-table kernel,
// produce the bytes of the loop they replaced — including where the crop is
// the output size, which the reference interpolates with zero weights and the
// kernel copies. Noise leaves a rounding difference no smooth region to
// hide in.
func TestBlendMatchesReference(t *testing.T) {
	for _, dim := range gridDims {
		w, h := dim[0], dim[1]
		if hurried() && w*h > 333*251 {
			continue
		}
		im := noiseImage(w, h, uint64(w*1000+h))
		for _, out := range gridCrops {
			for seed := 0; seed < gridSeeds(w, h); seed++ {
				rng := rand.New(rand.NewPCG(uint64(seed), uint64(out)))
				rect := gridRect(rng, w, h, out, seed%4)
				ow, oh := out, out
				if seed%8 >= 4 { // not only square outputs
					ow, oh = 1+rng.IntN(out), 1+rng.IntN(out)
				}
				got, err := CropResize(im, rect, ow, oh)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(refCropResize(im, rect, ow, oh)) {
					t.Fatalf("%dx%d: CropResize %+v to %dx%d differs from the reference loop", w, h, rect, ow, oh)
				}
				got.Release()
			}
			got, err := Resize(im, out, out/2+1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(refCropResize(im, Rect{W: w, H: h}, out, out/2+1)) {
				t.Fatalf("%dx%d: Resize to %dx%d differs from the reference loop", w, h, out, out/2+1)
			}
		}
	}
}

// decodePlanes is Decode's first step: every unit of every scan data holds.
func decodePlanes(data []byte) (ycc, error) {
	c, err := whole(data)
	if err != nil {
		return ycc{}, err
	}
	return c.decode(data, c.present, gridOf(c.w, c.h).all())
}

// fusedStream is one accepted stream with both of its decodes: the full image
// (the unfused path's input) and the planes (the fused kernel's).
type fusedStream struct {
	name    string
	data    []byte // what the entry point under test is handed
	scans   int    // L: 1, or MaxScans for the prefixes of a deep container
	shallow bool   // a prefix short of every scan: the full container's planes under wider shifts
	full    *Image
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
	full, err := Decode(one)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := decodePlanes(one)
	if err != nil {
		t.Fatal(err)
	}
	out := []fusedStream{{name: name + "/L1", data: one, scans: 1, full: full, plane: plane}}
	deep, err := EncodeProgressive(im, q, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= MaxScans; k++ {
		prefix, err := SlicePrefix(deep, k)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decode(prefix)
		if err != nil {
			t.Fatal(err)
		}
		plane, err := decodePlanes(prefix)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fusedStream{name: fmt.Sprintf("%s/L%d-k%d", name, MaxScans, k), data: prefix, scans: MaxScans, shallow: k < MaxScans, full: full, plane: plane})
	}
	return out
}

func (s *fusedStream) release() {
	s.full.Release()
	s.plane.release()
}

// TestDecodeCropResizeMatchesUnfused: the fused kernel equals
// CropResize(Decode(...)) byte for byte over the whole grid — every geometry,
// quantization band, scan depth, crop size and relation of crop to output —
// and the two exported entry points reach that kernel. Shallow prefixes differ
// from the full container only in the dequantization tables, so they draw
// fewer rects.
func TestDecodeCropResizeMatchesUnfused(t *testing.T) {
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
						rect := gridRect(rand.New(rand.NewPCG(uint64(seed), uint64(out))), w, h, out, seed%4)
						want, err := CropResize(s.full, rect, out, out)
						if err != nil {
							t.Fatal(err)
						}
						plane := s.planes()
						got, err := plane.cropResize(rect, out, out)
						plane.release()
						if err != nil {
							t.Fatalf("%s: %+v to %d: %v", s.name, rect, out, err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s: fused crop %+v to %d differs from CropResize(Decode)", s.name, rect, out)
						}
						if seed == 3 { // once per crop size through the exported entry point
							entry, err := DecodeCropResize(s.data, rect, out, out)
							if err != nil || !entry.Equal(want) {
								t.Fatalf("%s: entry point: err %v, equal %v", s.name, err, err == nil && entry.Equal(want))
							}
							entry.Release()
						}
						got.Release()
						want.Release()
					}
				}
				s.release()
			}
		}
	}
}

// TestDecodeCropResizeEdgeTaps: rects whose taps are only the first row, only
// the last row of an odd height, only column 0, or reach the last column of
// an odd width — where the column-0 chain and the running sums start and stop
// — at one scan, and of a MaxScans-deep container at one scan (no refinement
// bits) and at MaxScans (bits folded into each value restored, from every
// alignment of a row to the bytes of the bit planes). Odd sides end in a
// chroma sample that covers one pixel, not two. Rects also start and end on
// each band edge's first and last rows and one row either side, or fill one
// band; heights run under one band, one band, one row over, and two bands one
// row short and one over, the one-scan ones each also as noise, whose luma
// plane is stored.
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
						want, err := CropResize(s.full, rect, out, out)
						if err != nil {
							t.Fatal(err)
						}
						got, err := DecodeCropResize(s.data, rect, out, out)
						if err != nil || !got.Equal(want) {
							t.Fatalf("%s: crop %+v to %d: err %v, equal %v", s.name, rect, out, err, err == nil && got.Equal(want))
						}
						got.Release()
						want.Release()
					}
				}
				s.release()
			}
		}
	}
}

// decodeThenCropResize is the unfused path.
func decodeThenCropResize(data []byte, rect Rect, w, h int) (*Image, error) {
	im, err := Decode(data)
	if err != nil {
		return nil, err
	}
	defer im.Release()
	return CropResize(im, rect, w, h)
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
