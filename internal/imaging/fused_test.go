package imaging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"slices"
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
// photo-sized sources; the training crop sizes; and, per seed, one rect of
// each relation to the output size.
var (
	gridDims  = [][2]int{{1, 1}, {9, 1}, {1, 9}, {15, 17}, {333, 251}, {640, 480}}
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

// fusedStream is one accepted stream with both of its decodes: the full image
// (the unfused path's input) and the planes (the fused kernel's).
type fusedStream struct {
	name    string
	data    []byte // what the entry point under test is handed
	sjpr    bool
	shallow bool // a prefix short of every scan: the full container's planes under wider shifts
	full    *Image
	plane   ycc // as the first decode step left them; crops read copies (planes)
}

// planes returns a copy of s.plane for one cropResize, which undoes the row
// prediction only where it reads and so leaves the planes no use to the next.
// The caller releases it.
func (s *fusedStream) planes() ycc {
	p := newYCC(s.plane.w, s.plane.h, s.plane.yShift, s.plane.cShift, bufpool.GetBytes(len(s.plane.buf)))
	copy(p.buf, s.plane.buf)
	p.residual, p.bits = s.plane.residual, s.plane.bits
	return p
}

// fusedStreams encodes im at quality q as SJPG and as every prefix of a
// MaxScans-deep SJPR container.
func fusedStreams(t *testing.T, im *Image, q int) []fusedStream {
	t.Helper()
	name := fmt.Sprintf("%dx%d/q%d", im.W, im.H, q)
	sjpg, err := Encode(im, q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(sjpg)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := decodePlanes(sjpg)
	if err != nil {
		t.Fatal(err)
	}
	out := []fusedStream{{name: name + "/sjpg", data: sjpg, full: full, plane: plane}}
	prog, err := EncodeProgressive(im, q, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := parseProgressive(prog)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= MaxScans; k++ {
		prefix, err := SlicePrefix(prog, k)
		if err != nil {
			t.Fatal(err)
		}
		full, err := DecodeAtFidelity(prog, k)
		if err != nil {
			t.Fatal(err)
		}
		plane, err := scanPlanes(prog, &hd, k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fusedStream{name: fmt.Sprintf("%s/sjpr-k%d", name, k), data: prefix, sjpr: true, shallow: k < MaxScans, full: full, plane: plane})
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
							entry, err := decodeCropResize(s.data, s.sjpr, rect, out, out)
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
// — on SJPG and on SJPR at one scan (no refinement bits) and at MaxScans
// (bits folded into each value restored, from every alignment of a row to
// the bytes of the bit planes). Odd sides end in a chroma sample that covers
// one pixel, not two.
func TestDecodeCropResizeEdgeTaps(t *testing.T) {
	for _, dim := range [][2]int{{15, 17}, {333, 251}, {1, 9}, {9, 1}} {
		w, h := dim[0], dim[1]
		im := synthFor(t, uint64(w*1000+h), w, h, 0.6)
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
		for _, s := range fusedStreams(t, im, 80) {
			if s.shallow && s.plane.bits > 0 {
				s.release()
				continue // k = 1 and k = MaxScans cover both kinds of plane
			}
			for _, rect := range rects {
				for _, out := range []int{1, 3, 32} {
					want, err := CropResize(s.full, rect, out, out)
					if err != nil {
						t.Fatal(err)
					}
					got, err := decodeCropResize(s.data, s.sjpr, rect, out, out)
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

// decodeCropResize and decodeThenCropResize are the fused and the unfused
// path over either container.
func decodeCropResize(data []byte, sjpr bool, rect Rect, w, h int) (*Image, error) {
	if sjpr {
		return DecodeProgressiveCropResize(data, rect, w, h)
	}
	return DecodeCropResize(data, rect, w, h)
}

func decodeThenCropResize(data []byte, sjpr bool, rect Rect, w, h int) (*Image, error) {
	var im *Image
	var err error
	if sjpr {
		im, _, err = DecodeProgressive(data)
	} else {
		im, err = Decode(data)
	}
	if err != nil {
		return nil, err
	}
	defer im.Release()
	return CropResize(im, rect, w, h)
}

// sjpgOver frames a payload of coded planes as an SJPG stream claiming w×h.
func sjpgOver(w, h int, payload []byte) []byte {
	out := append([]byte(sjpgMagic), sjpgVersion, DefaultQuality)
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	return append(out, payload...)
}

// sjprOver frames payloads of coded planes as the scans of an SJPR container
// claiming w×h, each with the CRC the index wants.
func sjprOver(w, h int, scans ...[]byte) []byte {
	out := append([]byte(sjprMagic), sjprVersion, DefaultQuality)
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = append(out, uint8(len(scans)), 0, 0)
	for _, s := range scans {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(s, sjprCRC))
	}
	return append(out, bytes.Join(scans, nil)...)
}

// stored is one stored plane holding b.
func stored(b ...byte) []byte { return append([]byte{0}, b...) }

// TestFusedRejectionParity: on the same bytes the fused entry points return
// Decode's / DecodeProgressive's error, word for word, having drawn no more
// from the buffer arena than they did — nothing for a header or an
// implausible size, the planes alone for a bad payload — and on an accepted
// stream with a bad rect, CropResize's error without an output image.
func TestFusedRejectionParity(t *testing.T) {
	type parityCase struct {
		name string
		data []byte
		sjpr bool
		want error // nil: accepted
	}
	var cases []parityCase
	add := func(name string, data []byte, sjpr bool, want error) {
		cases = append(cases, parityCase{name, data, sjpr, want})
	}

	// planes_test.go's hand-built planes as the Cr plane of an SJPG stream and
	// of an SJPR base scan, under a 2n×1 image whose chroma planes are n
	// bytes. A base scan longer than the writer's worst case, 4n + 3, is
	// refused from the index.
	for _, c := range inflateRejections() {
		payload := slices.Concat(codePlanes(make([]byte, 2*c.n)), codePlanes(make([]byte, c.n)), c.stream)
		var want, wantSJPR error
		if !c.accept {
			want = ErrCorrupt
		}
		if wantSJPR = want; len(payload) > 4*c.n+3 {
			wantSJPR = ErrCorrupt
		}
		add("sjpg/"+c.name, sjpgOver(2*c.n, 1, payload), false, want)
		add("sjpr/"+c.name, sjprOver(2*c.n, 1, payload), true, wantSJPR)
	}

	// Real streams, damaged where each check looks.
	im := synthFor(t, 5, 16, 12, 0.5)
	sjpg, err := Encode(im, 80)
	if err != nil {
		t.Fatal(err)
	}
	sjpr, err := EncodeProgressiveSidecar(im, 80, 3, []byte("label"))
	if err != nil {
		t.Fatal(err)
	}
	hd, err := parseProgressive(sjpr)
	if err != nil {
		t.Fatal(err)
	}
	add("sjpg/intact", sjpg, false, nil)
	add("sjpr/intact", sjpr, true, nil)
	for n := 0; n <= headerSize; n++ {
		add(fmt.Sprintf("sjpg/cut at header byte %d", n), sjpg[:n], false, ErrCorrupt)
	}
	for n := 0; n < hd.body; n++ {
		add(fmt.Sprintf("sjpr/cut at header byte %d", n), sjpr[:n], true, ErrCorrupt)
	}
	add("sjpr/cut at the body", sjpr[:hd.body], true, ErrTruncated)
	add("sjpr/cut mid-scan", sjpr[:len(sjpr)-3], true, ErrTruncated)
	mutate := func(data []byte, at int, v byte) []byte {
		out := bytes.Clone(data)
		out[at] = v
		return out
	}
	add("sjpg/version", mutate(sjpg, 4, 9), false, ErrUnsupported)
	add("sjpr/version", mutate(sjpr, 4, 9), true, ErrUnsupported)
	add("sjpg/quality", mutate(sjpg, 5, 0), false, ErrCorrupt)
	add("sjpr/scan count", mutate(sjpr, 14, MaxScans+1), true, ErrCorrupt)
	add("sjpg/a first table over 128 bytes", mutate(sjpg, headerSize, 129), false, ErrCorrupt)
	add("sjpg/a byte after the planes", append(bytes.Clone(sjpg), 0), false, ErrCorrupt)
	add("sjpr/CRC mismatch", mutate(sjpr, len(sjpr)-1, sjpr[len(sjpr)-1]^0x40), true, ErrCorrupt)
	base := slices.Concat(stored(7), stored(7), stored(7))
	add("sjpr/padding bits set", sjprOver(1, 1, base, stored(0b1010)), true, ErrCorrupt)
	add("sjpr/refinement bits", sjprOver(1, 1, base, stored(0b010)), true, nil)
	huge := mutate(sjpg, 7, 0x80) // 8 388 624 × 12: refused as dims
	add("sjpg/dims over the cap", huge, false, ErrCorrupt)
	implausible := bytes.Clone(sjpg)
	copy(implausible[6:14], []byte{0, 0, 0x3e, 0x80, 0, 0, 0x3e, 0x80}) // 16000²
	add("sjpg/implausible dims", implausible, false, ErrCorrupt)
	implausible = bytes.Clone(sjpr)
	copy(implausible[6:14], []byte{0, 0, 0x3e, 0x80, 0, 0, 0x3e, 0x80})
	add("sjpr/implausible dims", implausible, true, ErrCorrupt)

	gets := func(f func() (*Image, error)) (*Image, error, uint64) {
		before := bufpool.ByteStats().Gets
		im, err := f()
		return im, err, bufpool.ByteStats().Gets - before
	}
	rect := Rect{W: 1, H: 1}
	for _, c := range cases {
		want, wantErr, wantGets := gets(func() (*Image, error) { return decodeThenCropResize(c.data, c.sjpr, rect, 2, 2) })
		got, gotErr, gotGets := gets(func() (*Image, error) { return decodeCropResize(c.data, c.sjpr, rect, 2, 2) })
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
	// CropResize's own error, after the planes and before any output image.
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
		for _, sjprStream := range []bool{false, true} {
			data := sjpg
			if sjprStream {
				data = sjpr
			}
			_, wantErr := decodeThenCropResize(data, sjprStream, c.rect, c.w, c.h)
			got, gotErr, n := gets(func() (*Image, error) { return decodeCropResize(data, sjprStream, c.rect, c.w, c.h) })
			if got != nil || !errors.Is(gotErr, ErrBadDimensions) || gotErr.Error() != wantErr.Error() {
				t.Errorf("%+v to %dx%d: fused err %v, unfused %v", c.rect, c.w, c.h, gotErr, wantErr)
			}
			if n != 1 {
				t.Errorf("%+v to %dx%d: refused after %d arena requests, want 1 (the planes)", c.rect, c.w, c.h, n)
			}
		}
	}
}
