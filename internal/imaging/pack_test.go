package imaging

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/raceflag"
)

// The reference coder: the packed form written the slow way its description
// in DESIGN.md reads, sharing no code with pack.go — one plane at a time, the
// branching predictor, Huffman by repeatedly joining the two lightest nodes,
// a []bool for the bit stream and a walk down the code tree to decode.
// AppendPacked must produce its bytes and Unpack must share its verdicts.

// refPlanes de-interleaves im into its G, R−G and B−G planes.
func refPlanes(im *Image) [Channels][]uint8 {
	n := im.W * im.H
	planes := [Channels][]uint8{make([]uint8, n), make([]uint8, n), make([]uint8, n)}
	for i := 0; i < n; i++ {
		r, g, b := im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2]
		planes[0][i], planes[1][i], planes[2][i] = g, r-g, b-g
	}
	return planes
}

// refPrediction is what the samples before i predict for sample i of a plane
// w wide: zero for the first sample, the left neighbour along the first row,
// the sample above down the first column, and elsewhere LOCO-I's median edge
// detector in its textbook spelling. G (p = 0) is compared as uint8, the two
// differences as int8.
func refPrediction(plane []uint8, w, i, p int) int {
	v := func(j int) int {
		if p == 0 {
			return int(plane[j])
		}
		return int(int8(plane[j]))
	}
	switch x, y := i%w, i/w; {
	case x == 0 && y == 0:
		return 0
	case y == 0:
		return v(i - 1)
	case x == 0:
		return v(i - w)
	}
	a, b, c := v(i-1), v(i-w), v(i-w-1)
	switch {
	case c >= max(a, b):
		return min(a, b)
	case c <= min(a, b):
		return max(a, b)
	}
	return a + b - c
}

func refResiduals(plane []uint8, w, p int) []uint8 {
	res := make([]uint8, len(plane))
	for i, v := range plane {
		res[i] = v - uint8(refPrediction(plane, w, i, p))
	}
	return res
}

func refUnpredict(res []uint8, w, p int) []uint8 {
	plane := make([]uint8, len(res))
	for i, d := range res {
		plane[i] = d + uint8(refPrediction(plane, w, i, p))
	}
	return plane
}

// refZigzag is the position of residual r in the header's order 0, −1, +1, …
func refZigzag(r uint8) int {
	s := int(int8(r))
	if s < 0 {
		return -2*s - 1
	}
	return 2 * s
}

type refNode struct {
	weight, seq int
	kids        []*refNode // nil for a leaf
}

func (nd *refNode) depths(d int, out *[]int) {
	if nd.kids == nil {
		*out = append(*out, d)
		return
	}
	for _, k := range nd.kids {
		k.depths(d+1, out)
	}
}

// refLengths returns the code length of every zig-zag position for a plane
// with these residual counts: Huffman's, a leaf joined before a tree of equal
// weight, limited to maxCodeLen the way JPEG's Annex K.3 limits to 16, and
// handed out shortest first to the commonest residual (the earlier in zig-zag
// order of equals).
func refLengths(hist [256]int) (lens [256]int) {
	type sym struct{ z, count int }
	var syms []sym
	for r, c := range hist {
		if c > 0 {
			syms = append(syms, sym{refZigzag(uint8(r)), c})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].count != syms[j].count {
			return syms[i].count > syms[j].count
		}
		return syms[i].z < syms[j].z
	})
	if len(syms) == 1 {
		lens[syms[0].z] = 1
		return lens
	}
	var nodes []*refNode
	for i := range syms {
		nodes = append(nodes, &refNode{weight: syms[i].count, seq: i})
	}
	lightest := func() *refNode {
		best := 0
		for i, nd := range nodes {
			b := nodes[best]
			if nd.weight < b.weight ||
				nd.weight == b.weight && (nd.kids == nil && b.kids != nil || (nd.kids == nil) == (b.kids == nil) && nd.seq < b.seq) {
				best = i
			}
		}
		nd := nodes[best]
		nodes = append(nodes[:best], nodes[best+1:]...)
		return nd
	}
	for seq := len(syms); len(nodes) > 1; seq++ {
		x, y := lightest(), lightest()
		nodes = append(nodes, &refNode{weight: x.weight + y.weight, seq: seq, kids: []*refNode{x, y}})
	}
	var depths []int
	nodes[0].depths(0, &depths)
	longestFirst := func() { sort.Sort(sort.Reverse(sort.IntSlice(depths))) }
	for longestFirst(); depths[0] > maxCodeLen; longestFirst() {
		// depths[0] and depths[1] are a deepest pair. One takes their parent's
		// place; the other joins the longest code at least two levels up, which
		// moves down a level to make room.
		j := 2
		for depths[j] > depths[0]-2 {
			j++
		}
		depths[0]--
		depths[j]++
		depths[1] = depths[j]
	}
	sort.Ints(depths)
	for i, s := range syms {
		lens[s.z] = depths[i]
	}
	return lens
}

// refCodes returns the canonical code of every used zig-zag position as a
// string of '0' and '1': codes in order of length, then position, each the
// previous plus one, extended with zeros to its own length.
func refCodes(lens [256]int) map[int]string {
	var used []int
	for z, l := range lens {
		if l > 0 {
			used = append(used, z)
		}
	}
	sort.Slice(used, func(i, j int) bool {
		if lens[used[i]] != lens[used[j]] {
			return lens[used[i]] < lens[used[j]]
		}
		return used[i] < used[j]
	})
	codes := make(map[int]string)
	code := 0
	for i, z := range used {
		if i > 0 {
			code = (code + 1) << (lens[z] - lens[used[i-1]])
		}
		codes[z] = fmt.Sprintf("%0*b", lens[z], code)
	}
	return codes
}

// refPlane is where the reference put one plane in the packed bytes.
type refPlane struct {
	start  int // of the header byte
	header int // bytes of code lengths; 0 when the plane is stored
	bits   int // of the code stream, before padding
}

func refPack(im *Image) ([]byte, [Channels]refPlane) {
	var out []byte
	var where [Channels]refPlane
	for p, plane := range refPlanes(im) {
		res := refResiduals(plane, im.W, p)
		var hist [256]int
		for _, r := range res {
			hist[r]++
		}
		lens := refLengths(hist)
		codes := refCodes(lens)
		var stream []bool
		for _, r := range res {
			for _, c := range codes[refZigzag(r)] {
				stream = append(stream, c == '1')
			}
		}
		last := 0
		for z, l := range lens {
			if l > 0 {
				last = z
			}
		}
		var nibbles []byte
		for z := 0; z <= last|1; z += 2 {
			nibbles = append(nibbles, byte(lens[z]<<4|lens[z+1]))
		}
		coded := make([]byte, (len(stream)+7)/8)
		for i, bit := range stream {
			if bit {
				coded[i/8] |= 0x80 >> (i % 8)
			}
		}
		where[p] = refPlane{start: len(out), header: len(nibbles), bits: len(stream)}
		if 1+len(nibbles)+len(coded) >= 1+len(res) {
			where[p].header, where[p].bits = 0, 8*len(res)
			out = append(append(out, 0), res...)
			continue
		}
		out = append(append(append(out, byte(len(nibbles))), nibbles...), coded...)
	}
	return out, where
}

func refUnpack(data []byte, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || 8*len(data) < Channels*w*h {
		return nil, errors.New("dimensions the payload cannot back")
	}
	n := w * h
	var planes [Channels][]uint8
	for p := range planes {
		if len(data) == 0 {
			return nil, errors.New("no plane header")
		}
		nh := int(data[0])
		data = data[1:]
		if nh == 0 {
			if len(data) < n {
				return nil, errors.New("stored plane cut short")
			}
			planes[p] = refUnpredict(data[:n], w, p)
			data = data[n:]
			continue
		}
		if nh > 128 || nh > len(data) {
			return nil, errors.New("code lengths cut short")
		}
		var lens [256]int
		kraft, used := 0.0, 0
		for i, b := range data[:nh] {
			lens[2*i], lens[2*i+1] = int(b>>4), int(b&15)
		}
		for _, l := range lens {
			if l > maxCodeLen {
				return nil, errors.New("code too long")
			}
			if l > 0 {
				kraft += math.Ldexp(1, -l)
				used++
			}
		}
		if kraft != 1 && !(used == 1 && kraft == 0.5) {
			return nil, errors.New("code not complete")
		}
		data = data[nh:]
		symbol := make(map[string]uint8)
		for z, c := range refCodes(lens) {
			r := z / 2
			if z%2 == 1 {
				r = -(z + 1) / 2
			}
			symbol[c] = uint8(r)
		}
		res, bit, code := make([]uint8, 0, n), 0, ""
		for len(res) < n {
			if bit/8 >= len(data) {
				return nil, errors.New("code stream cut short")
			}
			code += string('0' + data[bit/8]>>(7-bit%8)&1)
			bit++
			if r, ok := symbol[code]; ok {
				res, code = append(res, r), ""
			} else if len(code) >= maxCodeLen {
				return nil, errors.New("no such code")
			}
		}
		for ; bit%8 != 0; bit++ {
			if data[bit/8]>>(7-bit%8)&1 != 0 {
				return nil, errors.New("padding bit set")
			}
		}
		planes[p] = refUnpredict(res, w, p)
		data = data[bit/8:]
	}
	if len(data) != 0 {
		return nil, errors.New("trailing bytes")
	}
	im := MustNew(w, h)
	for i := 0; i < n; i++ {
		g := planes[0][i]
		im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = planes[1][i]+g, g, planes[2][i]+g
	}
	return im, nil
}

// imageFromResiduals is the w-wide image whose planes have exactly these
// residuals, for tests that need a particular histogram.
func imageFromResiduals(w int, res [Channels][]uint8) *Image {
	im := MustNew(w, len(res[0])/w)
	var planes [Channels][]uint8
	for p := range planes {
		planes[p] = refUnpredict(res[p], w, p)
	}
	for i, g := range planes[0] {
		im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = planes[1][i]+g, g, planes[2][i]+g
	}
	return im
}

// flatePack is the packed form this one replaced — left-neighbour residuals
// of the same three planes through one Huffman-only DEFLATE block — kept as
// the yardstick the new coder's sizes are held against.
func flatePack(t testing.TB, im *Image) []byte {
	t.Helper()
	n := im.W * im.H
	planes := make([]byte, 0, Channels*n)
	for _, plane := range refPlanes(im) {
		deltaEncode(plane, im.W)
		planes = append(planes, plane...)
	}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.HuffmanOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(planes); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func flatImage(w, h int, r, g, b uint8) *Image {
	im := MustNew(w, h)
	for i := 0; i < len(im.Pix); i += Channels {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
	}
	return im
}

func noiseImage(w, h int, seed uint64) *Image {
	im := MustNew(w, h)
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Uint32())
	}
	return im
}

// benchCrop is a crop as the live tier ships them: a decoded SJPG photo
// resampled to side×side.
func benchCrop(t testing.TB, seed uint64, w, h, side int, detail float64) *Image {
	t.Helper()
	raw, err := EncodeDefault(synthFor(t, seed, w, h, detail))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CropResize(dec, Rect{X: w / 10, Y: h / 10, W: w * 3 / 5, H: h * 3 / 5}, side, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenCrops are the three crops whose packed bytes are pinned.
var goldenCrops = []struct {
	seed   uint64
	w, h   int
	detail float64
	size   int
	digest string
}{
	{seed: 1, w: 200, h: 160, detail: 0.2, size: 14149, digest: "c6af19fd610ff0ec"},
	{seed: 2, w: 400, h: 300, detail: 0.5, size: 21207, digest: "cf989aa5667633e4"},
	{seed: 3, w: 640, h: 480, detail: 0.9, size: 26884, digest: "af63a19dab110b77"},
}

func packShapes(t testing.TB) map[string]*Image {
	return map[string]*Image{
		"1x1":         flatImage(1, 1, 200, 3, 90),
		"one column":  synthFor(t, 2, 1, 9, 0.5),
		"one row":     synthFor(t, 3, 9, 1, 0.5),
		"odd width":   synthFor(t, 4, 13, 7, 0.6),
		"photo":       synthFor(t, 5, 64, 48, 0.5),
		"one colour":  flatImage(33, 17, 10, 250, 128),
		"noise":       noiseImage(31, 23, 6),
		"noise, wide": noiseImage(160, 140, 7), // 67 200 B of pixels: over 65 535
		"crop":        benchCrop(t, 8, 320, 240, 128, 0.5),
	}
}

// assertPacks holds the fast path to the reference on one image: the same
// bytes, the size known without them, and both decoders back to the pixels.
func assertPacks(t *testing.T, name string, im *Image) []byte {
	t.Helper()
	want, _ := refPack(im)
	got := AppendPacked([]byte("hdr"), im)
	if !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], want) {
		t.Fatalf("%s: AppendPacked differs from the reference encoding (%d vs %d bytes)", name, len(got)-3, len(want))
	}
	if size := PackedSize(im); size != len(want) {
		t.Errorf("%s: PackedSize says %d, packed to %d", name, size, len(want))
	}
	back, err := Unpack(want, im.W, im.H)
	if err != nil {
		t.Fatalf("%s: Unpack: %v", name, err)
	}
	ref, err := refUnpack(want, im.W, im.H)
	if err != nil {
		t.Fatalf("%s: reference unpack: %v", name, err)
	}
	if !back.Equal(im) || !ref.Equal(im) {
		t.Errorf("%s: round trip changed pixels (Unpack ok: %v, reference ok: %v)", name, back.Equal(im), ref.Equal(im))
	}
	back.Release()
	return want
}

func TestPackMatchesReference(t *testing.T) {
	for name, im := range packShapes(t) {
		assertPacks(t, name, im)
	}
}

// TestPackSinglePlaneValue: a plane with one residual value is coded with
// the one-bit code 0 — header one byte of lengths, w·h zero bits — and the
// other bit is no code at all.
func TestPackSinglePlaneValue(t *testing.T) {
	im := flatImage(40, 30, 0, 0, 0)
	enc := assertPacks(t, "black", im)
	plane := append([]byte{1, 0x10}, make([]byte, 40*30/8)...)
	if want := bytes.Repeat(plane, Channels); !bytes.Equal(enc, want) {
		t.Fatalf("black 40x30 packed to %x, want three planes of %x", enc, plane)
	}
	bad := bytes.Clone(enc)
	bad[2+17] = 0x04 // a 1 bit among residuals that can only be 0s
	if _, err := Unpack(bad, 40, 30); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a bit with no code: err = %v, want ErrCorrupt", err)
	}
	for _, lens := range []byte{0x20 /* under-subscribed */, 0x00 /* no code at all */, 0xd0 /* 13 bits */, 0x12 /* over-subscribed */} {
		bad := bytes.Clone(enc)
		bad[1] = lens
		if _, err := Unpack(bad, 40, 30); !errors.Is(err, ErrCorrupt) {
			t.Errorf("code lengths %#02x: err = %v, want ErrCorrupt", lens, err)
		}
	}
}

// TestPackTinyImagesAndPadding: one, two and three pixels round-trip; where a
// plane's codes end inside a byte the rest of it is zero, Unpack insists on
// that, and the next plane starts on the byte after.
func TestPackTinyImagesAndPadding(t *testing.T) {
	for w := 1; w <= 3; w++ {
		assertPacks(t, fmt.Sprintf("%dx1", w), synthFor(t, uint64(w), w, 1, 0.9))
		assertPacks(t, fmt.Sprintf("1x%d", w), synthFor(t, uint64(w), 1, w, 0.9))
	}
	im := benchCrop(t, 4, 160, 120, 31, 0.5)
	enc := assertPacks(t, "31x31 crop", im)
	_, where := refPack(im)
	padded := 0
	for p, pl := range where {
		if pl.header == 0 || pl.bits%8 == 0 {
			continue
		}
		padded++
		last := pl.start + 1 + pl.header + pl.bits/8
		for bit := pl.bits % 8; bit < 8; bit++ {
			if enc[last]&(0x80>>bit) != 0 {
				t.Fatalf("plane %d: padding bit %d is set", p, bit)
			}
			bad := bytes.Clone(enc)
			bad[last] |= 0x80 >> bit
			if _, err := Unpack(bad, im.W, im.H); !errors.Is(err, ErrCorrupt) {
				t.Errorf("plane %d with padding bit %d set: err = %v, want ErrCorrupt", p, bit, err)
			}
		}
	}
	if padded == 0 {
		t.Fatal("no plane of the 31x31 crop ends inside a byte; pick another crop")
	}
}

// TestPackDeterministic: the bytes, table headers included, are a function of
// the pixels alone — not of the run, the goroutine, GOMAXPROCS or what the
// pooled scratch last held.
func TestPackDeterministic(t *testing.T) {
	shapes := packShapes(t)
	want := make(map[string][]byte)
	for name, im := range shapes {
		want[name] = AppendPacked(nil, im)
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name, im := range shapes {
					if got := AppendPacked(nil, im); !bytes.Equal(got, want[name]) {
						t.Errorf("GOMAXPROCS=%d: %s packed differently", procs, name)
					}
				}
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}

// TestPackAllResidualsAndLengthLimit: a plane using all 256 residual values,
// and planes whose counts grow like Fibonacci numbers — for which Huffman's
// code is as deep as it can be, far beyond maxCodeLen — still get a complete
// code of at most maxCodeLen bits, the reference's, and round-trip.
func TestPackAllResidualsAndLengthLimit(t *testing.T) {
	const w, h = 144, 128
	var res [Channels][]uint8
	for p := range res {
		res[p] = make([]uint8, w*h)
	}
	for i := range res[0] {
		res[0][i] = uint8(i) // every value, equally often
	}
	// Fibonacci counts 1, 1, 2, 3, … 6765 over 20 values fill 17 710 samples;
	// unlimited, the rarest would get some 18 bits.
	at, a, b := 0, 1, 1
	for v := 0; v < 20; v++ {
		for k := 0; k < a; k++ {
			res[1][at], res[2][at] = uint8(v), uint8(-v) // plane 2: the other side of zero
			at++
		}
		a, b = b, a+b
	}
	rand.New(rand.NewPCG(1, 1)).Shuffle(at, func(i, j int) {
		res[1][i], res[1][j] = res[1][j], res[1][i]
		res[2][i], res[2][j] = res[2][j], res[2][i]
	})
	im := imageFromResiduals(w, res)
	enc := assertPacks(t, "all residuals, Fibonacci counts", im)
	_, where := refPack(im)
	if where[0].header != 0 {
		t.Errorf("a plane of uniform residuals was coded (%d-byte table), not stored", where[0].header)
	}
	for p := 1; p < Channels; p++ {
		pl := where[p]
		if pl.header == 0 {
			t.Fatalf("plane %d was stored", p)
		}
		deepest, kraft := 0, 0
		for _, b := range enc[pl.start+1 : pl.start+1+pl.header] {
			for _, l := range []int{int(b >> 4), int(b & 15)} {
				if deepest = max(deepest, l); l > 0 && l <= maxCodeLen {
					kraft += 1 << (maxCodeLen - l)
				}
			}
		}
		if deepest != maxCodeLen || kraft != 1<<maxCodeLen {
			t.Errorf("plane %d: deepest code %d bits, Kraft sum %d/4096; want %d and a complete code", p, deepest, kraft, maxCodeLen)
		}
	}

	// All 256 values in a coded plane: skewed enough to be worth coding.
	for i := range res[0] {
		if i%3 != 0 {
			res[0][i] = uint8(i % 5)
		}
	}
	im = imageFromResiduals(w, res)
	enc = assertPacks(t, "all residuals, skewed", im)
	if enc[0] != 128 {
		t.Errorf("all 256 residual values in use: header is %d bytes, want 128", enc[0])
	}
}

// TestPackedGoldenDigests pins the wire bytes of three crops so the packed
// form cannot drift silently.
func TestPackedGoldenDigests(t *testing.T) {
	for _, c := range goldenCrops {
		enc := AppendPacked(nil, benchCrop(t, c.seed, c.w, c.h, 128, c.detail))
		if len(enc) != c.size || fnvHex(enc) != c.digest {
			t.Errorf("seed %d: packed to %d bytes, digest %q; want %d, %q", c.seed, len(enc), fnvHex(enc), c.size, c.digest)
		}
	}
}

// TestPackedSizeBounds: a plane's code is within Gallager's bound on a Huffman
// code's redundancy — the commonest residual's probability plus 0.086 bits a
// sample — of the plane's order-0 entropy, and where no plane is so flat that
// one residual is most of it (under 2 bits a sample, where a whole bit for it
// is the waste), the packed crop is within 5 % plus the table headers of the
// entropy. Every crop is at least 9.5 % under the DEFLATE packing this coder
// replaced and the three together 12 %. Pixels no Huffman code can shrink are
// stored, one byte per plane over the pixel bytes and never more.
func TestPackedSizeBounds(t *testing.T) {
	packed, deflated := 0, 0
	for _, c := range goldenCrops {
		crop := benchCrop(t, c.seed, c.w, c.h, 128, c.detail)
		enc, where := refPack(crop)
		n := float64(crop.W * crop.H)
		entropy, flattest := 0.0, 8.0 // bits; bits a sample
		for p, plane := range refPlanes(crop) {
			var hist [256]int
			for _, r := range refResiduals(plane, crop.W, p) {
				hist[r]++
			}
			h, commonest := 0.0, 0
			for _, c := range hist {
				if c > 0 {
					h -= float64(c) * math.Log2(float64(c)/n)
					commonest = max(commonest, c)
				}
			}
			if bound := h + float64(commonest) + 0.086*n; float64(where[p].bits) > bound {
				t.Errorf("seed %d plane %d: coded in %d bits, entropy %.0f; Gallager's bound is %.0f", c.seed, p, where[p].bits, h, bound)
			}
			entropy, flattest = entropy+h, min(flattest, h/n)
		}
		if bound := 1.05*entropy/8 + 256; flattest >= 2 && float64(len(enc)) > bound {
			t.Errorf("seed %d: packed to %d bytes, order-0 entropy is %.0f; want at most %.0f", c.seed, len(enc), entropy/8, bound)
		}
		old := len(flatePack(t, crop))
		if float64(len(enc)) > 0.905*float64(old) {
			t.Errorf("seed %d: packed to %d bytes, the DEFLATE packing to %d; want at most 0.905 of it", c.seed, len(enc), old)
		}
		if ratio := float64(len(enc)) / float64(len(crop.Pix)); ratio < 0.25 || ratio > 0.6 {
			t.Errorf("seed %d: packed to %.3f of the pixels, want about 0.3-0.55", c.seed, ratio)
		}
		packed, deflated = packed+len(enc), deflated+old
	}
	if float64(packed) > 0.88*float64(deflated) {
		t.Errorf("the three crops pack to %d bytes, the DEFLATE packing to %d; want at most 0.88 of it", packed, deflated)
	}
	for _, im := range []*Image{noiseImage(1, 1, 1), noiseImage(128, 128, 1), noiseImage(134, 163, 2), noiseImage(300, 300, 3)} {
		if enc := AppendPacked(nil, im); len(enc) != len(im.Pix)+Channels {
			t.Errorf("%dx%d noise packed to %d bytes, want its %d stored and %d header bytes", im.W, im.H, len(enc), len(im.Pix), Channels)
		}
	}
}

// TestPackedSizeIsExact: PackedSize is len(AppendPacked) for any dimensions
// and content.
func TestPackedSizeIsExact(t *testing.T) {
	check := func(w, h uint8, kind uint8, seed uint64) bool {
		iw, ih := int(w)%96+1, int(h)%96+1
		var im *Image
		switch kind % 3 {
		case 0:
			im = synthFor(t, seed, iw, ih, float64(seed%10)/10)
		case 1:
			im = flatImage(iw, ih, uint8(seed), uint8(seed>>8), uint8(seed>>16))
		default:
			im = noiseImage(iw, ih, seed)
		}
		return PackedSize(im) == len(AppendPacked(nil, im))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// assertUnpackAgrees holds Unpack to the reference decoder on arbitrary
// bytes: the same verdict, every rejection ErrCorrupt with no image, and on
// acceptance the same pixels, which pack and unpack to themselves again.
func assertUnpackAgrees(t *testing.T, name string, data []byte, w, h int) {
	t.Helper()
	want, refErr := refUnpack(data, w, h)
	got, err := Unpack(data, w, h)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("%s: reference says %v, Unpack says %v", name, refErr, err)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) || got != nil {
			t.Fatalf("%s: err = %v with image %v, want ErrCorrupt and none", name, err, got != nil)
		}
		return
	}
	defer got.Release()
	if !got.Equal(want) {
		t.Fatalf("%s: accepted, but not as the image the reference decodes", name)
	}
	again, err := Unpack(AppendPacked(nil, got), w, h)
	if err != nil || !again.Equal(got) {
		t.Fatalf("%s: the accepted image does not survive a round trip (err %v)", name, err)
	}
	again.Release()
}

func TestUnpackRejects(t *testing.T) {
	im := benchCrop(t, 4, 160, 120, 32, 0.5)
	good, where := refPack(im)
	corrupt := func(name string, data []byte, w, h int) {
		t.Helper()
		out, err := Unpack(data, w, h)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if out != nil {
			t.Errorf("%s: returned an image with the error", name)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		corrupt("truncated", good[:cut], im.W, im.H)
	}
	corrupt("trailing byte", append(bytes.Clone(good), 0), im.W, im.H)
	corrupt("wider than packed", good, im.W+1, im.H)
	corrupt("shorter than packed", good, im.W, im.H-1)
	corrupt("zero width", good, 0, im.H)
	corrupt("negative height", good, im.W, -1)
	corrupt("over the dimension cap", good, 1<<16+1, 1)
	long := bytes.Clone(good)
	long[where[1].start+1] |= 0xd0
	corrupt("a 13-bit code", long, im.W, im.H)
	stored := AppendPacked(nil, noiseImage(8, 8, 1))
	corrupt("stored plane cut short", stored[:len(stored)-1], 8, 8)

	// Every bit of the three table headers, flipped: refused, or — where the
	// lengths still make a complete code — decoded as the reference decodes it.
	for p, pl := range where {
		if pl.header == 0 {
			t.Fatalf("plane %d of the crop is stored; pick another crop", p)
		}
		for i := pl.start; i <= pl.start+pl.header; i++ {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(good)
				bad[i] ^= 1 << bit
				assertUnpackAgrees(t, fmt.Sprintf("plane %d header byte %d bit %d", p, i-pl.start, bit), bad, im.W, im.H)
			}
		}
	}

	// Dimensions the payload cannot back are refused before any buffer is
	// requested: 65 536 × 65 536 would be a 12 GiB scratch. A residual costs
	// at least a bit, so neither can 8·len+1 samples come out of len bytes.
	before := bufpool.ByteStats()
	corrupt("implausible dims", good, 1<<16, 1<<16)
	corrupt("one sample too many", good, 8*len(good)/Channels+1, 1)
	if after := bufpool.ByteStats(); after != before {
		t.Errorf("implausible dims reached the buffer arena: %+v -> %+v", before, after)
	}
}

func TestPackSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only a collection empties the pools
	im := benchCrop(t, 2, 400, 300, 128, 0.5)
	buf := make([]byte, 0, len(im.Pix))
	var enc []byte
	if allocs := testing.AllocsPerRun(20, func() { enc = AppendPacked(buf, im) }); allocs != 0 {
		t.Errorf("AppendPacked allocates %.1f allocs/op at steady state, want 0 (pooled tables, pooled planes)", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { PackedSize(im) }); allocs != 0 {
		t.Errorf("PackedSize allocates %.1f allocs/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		out, err := Unpack(enc, im.W, im.H)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}); allocs != 1 {
		t.Errorf("Unpack allocates %.1f allocs/op at steady state, want 1 (the Image header)", allocs)
	}
}

// FuzzUnpack: on any dimensions and bytes Unpack either refuses with
// ErrCorrupt — without asking the arena for more than the payload could
// back, a bit a residual — or returns an image that packs and unpacks to
// itself; on images small enough for the reference decoder, exactly when and
// what the reference does.
func FuzzUnpack(f *testing.F) {
	for _, im := range []*Image{flatImage(5, 4, 1, 2, 3), synthFor(f, 1, 7, 5, 0.7), noiseImage(3, 3, 1)} {
		good := AppendPacked(nil, im)
		f.Add(im.W, im.H, good)
		f.Add(im.W, im.H, append(bytes.Clone(good), 0))
		f.Add(im.H, im.W, good)
		for cut := 0; cut < len(good); cut += 3 {
			f.Add(im.W, im.H, good[:cut])
		}
		for bit := 0; bit < 8*min(len(good), 12); bit++ {
			bad := bytes.Clone(good)
			bad[bit/8] ^= 1 << (bit % 8)
			f.Add(im.W, im.H, bad)
		}
	}
	f.Add(0, 0, []byte{})
	f.Add(1, 1, []byte{1, 0x10, 0, 1, 0x10, 0, 1, 0x10, 0}) // one code each
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(9, 9, all)
	f.Add(1<<16, 1<<16, all)

	f.Fuzz(func(t *testing.T, w, h int, data []byte) {
		if w > 0 && h > 0 && w*h <= 1<<12 {
			assertUnpackAgrees(t, "fuzzed", data, w, h)
			return
		}
		before := bufpool.ByteStats()
		im, err := Unpack(data, w, h)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || im != nil {
				t.Fatalf("err = %v with image %v, want ErrCorrupt and none", err, im != nil)
			}
			if bufpool.ByteStats() != before && (w > maxDim || h > maxDim || Channels*w*h > 8*len(data)) {
				t.Fatalf("%dx%d refused, but only after sizing a buffer no %d-byte payload backs", w, h, len(data))
			}
			return
		}
		again, err := Unpack(AppendPacked(nil, im), w, h)
		if err != nil || !again.Equal(im) {
			t.Fatalf("the accepted image does not survive a round trip (err %v)", err)
		}
		again.Release()
		im.Release()
	})
}

func BenchmarkPack128(b *testing.B) {
	im := benchCrop(b, 2, 400, 300, 128, 0.5)
	buf := make([]byte, 0, len(im.Pix))
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendPacked(buf[:0], im)
	}
}

func BenchmarkUnpack128(b *testing.B) {
	im := benchCrop(b, 2, 400, 300, 128, 0.5)
	enc := AppendPacked(nil, im)
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Unpack(enc, im.W, im.H)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkPackedSize480x360 is the profiler's sizing of one full decoded
// image, which before PackedSize was a whole pack into a discarded buffer.
func BenchmarkPackedSize480x360(b *testing.B) {
	raw, err := EncodeDefault(synthFor(b, 9, 480, 360, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	im, err := Decode(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	size := 0
	for i := 0; i < b.N; i++ {
		size = PackedSize(im)
	}
	b.ReportMetric(float64(size)/float64(len(im.Pix)), "packed/pixels")
}
