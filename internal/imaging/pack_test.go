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
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/raceflag"
)

// The reference coder: the packed form written the slow way its description
// in DESIGN.md reads, sharing no code with pack.go — one plane at a time, the
// textbook predictors, Huffman by repeatedly joining the two lightest nodes,
// a []bool for the bit stream and a walk down the codes to decode, a bit at a
// time. AppendPacked must produce its bytes and Unpack must share its
// verdicts.

// refPlanes de-interleaves im into its B−G, R−G and G planes, the order they
// are packed in.
func refPlanes(im *Image) [Channels][]uint8 {
	n := im.W * im.H
	planes := [Channels][]uint8{make([]uint8, n), make([]uint8, n), make([]uint8, n)}
	for i := 0; i < n; i++ {
		r, g, b := im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2]
		planes[0][i], planes[1][i], planes[2][i] = b-g, r-g, g
	}
	return planes
}

// refImage interleaves B−G, R−G and G planes w wide back into an image.
func refImage(w int, planes [Channels][]uint8) *Image {
	im := MustNew(w, len(planes[0])/w)
	for i, g := range planes[2] {
		im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = planes[1][i]+g, g, planes[0][i]+g
	}
	return im
}

// The reference's predictors, numbered as G's predictor byte numbers them.
const (
	refMedian = 0 // LOCO-I's median edge detector
	refMean   = 1 // ⌊(a+b+d)/3⌋, for G
)

// refPrediction is what the samples before i predict for sample i of plane p
// (B−G, R−G or G), w wide: zero for the first sample and the left neighbour
// along the first row. Below it, with a to the left, b above, c above-left
// and d above-right — a = c = b in the first column, d = b in the last — the
// median edge detector in its textbook spelling, or the mean of three. G is
// compared as uint8, the two differences as int8.
func refPrediction(plane []uint8, w, i, p, pred int) int {
	v := func(j int) int {
		if p == 2 {
			return int(plane[j])
		}
		return int(int8(plane[j]))
	}
	x, y := i%w, i/w
	switch {
	case x == 0 && y == 0:
		return 0
	case y == 0:
		return v(i - 1)
	}
	b := v(i - w)
	a, c, d := b, b, b
	if x > 0 {
		a, c = v(i-1), v(i-w-1)
	}
	if x < w-1 {
		d = v(i - w + 1)
	}
	if pred == refMean {
		return int(math.Floor(float64(a+b+d) / 3))
	}
	switch {
	case c >= max(a, b):
		return min(a, b)
	case c <= min(a, b):
		return max(a, b)
	}
	return a + b - c
}

func refResiduals(plane []uint8, w, p, pred int) []uint8 {
	res := make([]uint8, len(plane))
	for i, v := range plane {
		res[i] = v - uint8(refPrediction(plane, w, i, p, pred))
	}
	return res
}

func refUnpredict(res []uint8, w, p, pred int) []uint8 {
	plane := make([]uint8, len(res))
	for i, d := range res {
		plane[i] = d + uint8(refPrediction(plane, w, i, p, pred))
	}
	return plane
}

// refContext is the table an R−G sample is coded with: its pixel's B−G
// residual as int8, clamped to −3…+3, counted from −3.
func refContext(bg uint8) int {
	return min(max(int(int8(bg)), -3), 3) + 3
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

// refLengths returns the code length of every zig-zag position for a table
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

// refCodes returns the canonical code of every used position as a
// string of '0' and '1': codes in order of length, then position, each the
// previous plus one, extended with zeros to its own length.
func refCodes(lens []int) map[int]string {
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

// refPlane is where the reference put one plane in the packed bytes, and how
// it coded it.
type refPlane struct {
	start  int        // of the plane's first byte
	header int        // bytes before the codes: tables and predictor; 0 when stored
	bits   int        // of the code stream, before padding
	tables []int      // where each table's H byte is
	hists  [][256]int // residual counts by table
	lens   [][256]int // code lengths by table and zig-zag position
	pred   int        // G's predictor
	stored bool       // the plane is its marker and the residuals as they are
}

// refCode codes residuals, sample i with table ctx[i] of tables, as one
// plane: the tables — H, then the lengths two to a byte, high nibble first,
// up to the last used position — the predictor byte unless pred is negative,
// and the codes, zero-padded to a byte. When that is not shorter than marker
// and the residuals as they are, it is the latter.
func refCode(res []uint8, ctx []int, tables, pred int, marker byte) ([]byte, refPlane) {
	pl := refPlane{hists: make([][256]int, tables), lens: make([][256]int, tables), pred: max(pred, 0)}
	for i, r := range res {
		pl.hists[ctx[i]][r]++
	}
	var out []byte
	codes := make([]map[int]string, tables)
	for t, hist := range pl.hists {
		pl.tables = append(pl.tables, len(out))
		last := -1
		for r, c := range hist {
			if c > 0 {
				last = max(last, refZigzag(uint8(r)))
			}
		}
		if last < 0 {
			out = append(out, 0)
			continue
		}
		pl.lens[t] = refLengths(hist)
		codes[t] = refCodes(pl.lens[t][:])
		var nibbles []byte
		for z := 0; z <= last|1; z += 2 {
			nibbles = append(nibbles, byte(pl.lens[t][z]<<4|pl.lens[t][z+1]))
		}
		out = append(append(out, byte(len(nibbles))), nibbles...)
	}
	if pred >= 0 {
		out = append(out, byte(pred))
	}
	pl.header = len(out)
	var stream []bool
	for i, r := range res {
		for _, c := range codes[ctx[i]][refZigzag(r)] {
			stream = append(stream, c == '1')
		}
	}
	pl.bits = len(stream)
	coded := make([]byte, (len(stream)+7)/8)
	for i, bit := range stream {
		if bit {
			coded[i/8] |= 0x80 >> (i % 8)
		}
	}
	if len(out)+len(coded) >= 1+len(res) {
		return append([]byte{marker}, res...), refPlane{bits: 8 * len(res), stored: true}
	}
	return append(out, coded...), pl
}

// refPack packs im the way the format reads: B−G with one table; R−G with a
// table for each of its pixels' B−G residuals −3…+3; G with one table, by the
// median or by the mean of three, whichever is shorter coded (the median if
// they tie, and when G is stored).
func refPack(im *Image) ([]byte, [Channels]refPlane) {
	planes := refPlanes(im)
	n := len(planes[0])
	one, ctx := make([]int, n), make([]int, n)
	bg := refResiduals(planes[0], im.W, 0, refMedian)
	for i, r := range bg {
		ctx[i] = refContext(r)
	}
	var coded [Channels][]byte
	var where [Channels]refPlane
	coded[0], where[0] = refCode(bg, one, 1, -1, 0)
	coded[1], where[1] = refCode(refResiduals(planes[1], im.W, 1, refMedian), ctx, 7, -1, 255)
	coded[2], where[2] = refCode(refResiduals(planes[2], im.W, 2, refMedian), one, 1, refMedian, 0)
	if mean, pl := refCode(refResiduals(planes[2], im.W, 2, refMean), one, 1, refMean, 0); !pl.stored && len(mean) < len(coded[2]) {
		coded[2], where[2] = mean, pl
	}
	var out []byte
	for p := range coded {
		where[p].start = len(out)
		for t := range where[p].tables {
			where[p].tables[t] += len(out)
		}
		out = append(out, coded[p]...)
	}
	return out, where
}

func refUnpack(data []byte, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || 8*len(data) < Channels*w*h {
		return nil, errors.New("dimensions the payload cannot back")
	}
	n := w * h
	var res [Channels][]uint8
	pred := refMedian
	for p := range res {
		tables, marker := 1, byte(0)
		if p == 1 {
			tables, marker = 7, 255
		}
		if len(data) == 0 {
			return nil, errors.New("no plane header")
		}
		if data[0] == marker {
			if len(data)-1 < n {
				return nil, errors.New("stored plane cut short")
			}
			res[p], data = data[1:1+n], data[1+n:]
			continue
		}
		symbol := make([]map[string]uint8, tables)
		for t := range symbol {
			if len(data) == 0 {
				return nil, errors.New("no table header")
			}
			nh := int(data[0])
			if data = data[1:]; nh > 128 || nh > len(data) {
				return nil, errors.New("code lengths cut short")
			}
			var lens [256]int
			for i, b := range data[:nh] {
				lens[2*i], lens[2*i+1] = int(b>>4), int(b&15)
			}
			data = data[nh:]
			kraft, used := 0.0, 0
			for _, l := range lens {
				if l > maxCodeLen {
					return nil, errors.New("code too long")
				}
				if l > 0 {
					kraft += math.Ldexp(1, -l)
					used++
				}
			}
			if nh > 0 && kraft != 1 && !(used == 1 && kraft == 0.5) {
				return nil, errors.New("code not complete")
			}
			symbol[t] = make(map[string]uint8)
			for z, c := range refCodes(lens[:]) {
				r := z / 2
				if z%2 == 1 {
					r = -(z + 1) / 2
				}
				symbol[t][c] = uint8(r)
			}
		}
		if p == 2 {
			if len(data) == 0 || data[0] > refMean {
				return nil, errors.New("no such predictor")
			}
			pred, data = int(data[0]), data[1:]
		}
		res[p] = make([]uint8, 0, n)
		bit, code := 0, ""
		for len(res[p]) < n {
			t := 0
			if p == 1 {
				t = refContext(res[0][len(res[p])])
			}
			if bit/8 >= len(data) {
				return nil, errors.New("code stream cut short")
			}
			code += string('0' + data[bit/8]>>(7-bit%8)&1)
			bit++
			if r, ok := symbol[t][code]; ok {
				res[p], code = append(res[p], r), ""
			} else if len(code) >= maxCodeLen {
				return nil, errors.New("no such code")
			}
		}
		for ; bit%8 != 0; bit++ {
			if data[bit/8]>>(7-bit%8)&1 != 0 {
				return nil, errors.New("padding bit set")
			}
		}
		data = data[bit/8:]
	}
	if len(data) != 0 {
		return nil, errors.New("trailing bytes")
	}
	return refImage(w, [Channels][]uint8{
		refUnpredict(res[0], w, 0, refMedian), refUnpredict(res[1], w, 1, refMedian), refUnpredict(res[2], w, 2, pred),
	}), nil
}

// imageFromResiduals is the w-wide image whose B−G, R−G and G planes have
// exactly these median-predicted residuals, for tests that need a particular
// histogram.
func imageFromResiduals(w int, res [Channels][]uint8) *Image {
	var planes [Channels][]uint8
	for p := range planes {
		planes[p] = refUnpredict(res[p], w, p, refMedian)
	}
	return refImage(w, planes)
}

// onePerPlanePack is the packed form this one replaced — planes G, R−G and
// B−G, each by the median edge detector and with one table of its own —
// kept as the yardstick the context-coded form's sizes are held against.
func onePerPlanePack(im *Image) []byte {
	planes := refPlanes(im)
	var out []byte
	for _, p := range []int{2, 1, 0} {
		coded, _ := refCode(refResiduals(planes[p], im.W, p, refMedian), make([]int, len(planes[p])), 1, -1, 0)
		out = append(out, coded...)
	}
	return out
}

// flatePack is the packed form before that — left-neighbour residuals of the
// planes G, R−G and B−G through one Huffman-only DEFLATE block — kept as the
// older yardstick.
func flatePack(t testing.TB, im *Image) []byte {
	t.Helper()
	n := im.W * im.H
	planes := make([]byte, 0, Channels*n)
	for _, p := range []int{2, 1, 0} {
		plane := refPlanes(im)[p]
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
	{seed: 1, w: 200, h: 160, detail: 0.2, size: 13841, digest: "da9ab8a9ff4cd937"},
	{seed: 2, w: 400, h: 300, detail: 0.5, size: 19539, digest: "7dbc0e738a26acef"},
	{seed: 3, w: 640, h: 480, detail: 0.9, size: 24259, digest: "6382e02eb79334be"},
}

func packShapes(t testing.TB) map[string]*Image {
	return map[string]*Image{
		"1x1":         flatImage(1, 1, 200, 3, 90),
		"one column":  synthFor(t, 2, 1, 9, 0.5),
		"one row":     synthFor(t, 3, 9, 1, 0.5),
		"two columns": synthFor(t, 5, 2, 11, 0.7),
		"odd width":   synthFor(t, 4, 13, 7, 0.6),
		"photo":       synthFor(t, 5, 64, 48, 0.5),
		"one colour":  flatImage(33, 17, 10, 250, 128),
		"noise":       noiseImage(31, 23, 6),
		"noise, wide": noiseImage(160, 140, 7), // 67 200 B of pixels: over 65 535
		"crop":        benchCrop(t, 8, 320, 240, 128, 0.5),
		"smooth crop": benchCrop(t, 9, 160, 120, 128, 0.1), // upscaled: the median can win G
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
	preds := map[int]int{}
	for name, im := range packShapes(t) {
		assertPacks(t, name, im)
		if _, where := refPack(im); !where[2].stored {
			preds[where[2].pred]++
		}
	}
	if preds[refMedian] == 0 || preds[refMean] == 0 {
		t.Errorf("coded G planes by predictor %v: the shapes do not exercise both", preds)
	}
}

// TestPackSinglePlaneValue: a table of one residual value codes it with the
// one-bit code 0 — one byte of lengths, a bit a sample — and the other bit is
// no code at all. A black image is three such planes: R−G's samples all fall
// in the table of B−G residual 0, the other six tables empty, and G ties
// between its predictors, so it names the median.
func TestPackSinglePlaneValue(t *testing.T) {
	im := flatImage(40, 30, 0, 0, 0)
	enc := assertPacks(t, "black", im)
	codes := make([]byte, 40*30/8)
	want := slices.Concat([]byte{1, 0x10}, codes, []byte{0, 0, 0, 1, 0x10, 0, 0, 0}, codes, []byte{1, 0x10, 0}, codes)
	if !bytes.Equal(enc, want) {
		t.Fatalf("black 40x30 packed to %x, want %x", enc, want)
	}
	bad := bytes.Clone(enc)
	bad[2+17] = 0x04 // a 1 bit among residuals that can only be 0s
	rejectedByBoth(t, "a bit with no code", bad, 40, 30)
	for _, lens := range []byte{0x20 /* under-subscribed */, 0x00 /* no code at all */, 0xd0 /* 13 bits */, 0x12 /* two codes, incomplete */} {
		bad := bytes.Clone(enc)
		bad[1] = lens
		rejectedByBoth(t, fmt.Sprintf("B−G code lengths %#02x", lens), bad, 40, 30)
		bad = bytes.Clone(enc)
		bad[152+4] = lens
		rejectedByBoth(t, fmt.Sprintf("R−G context 0 code lengths %#02x", lens), bad, 40, 30)
	}
}

// rejectedByBoth: Unpack refuses data as ErrCorrupt with no image, and so
// does the reference decoder.
func rejectedByBoth(t *testing.T, name string, data []byte, w, h int) {
	t.Helper()
	out, err := Unpack(data, w, h)
	if !errors.Is(err, ErrCorrupt) || out != nil {
		t.Errorf("%s: err = %v with image %v, want ErrCorrupt and none", name, err, out != nil)
	}
	if _, err := refUnpack(data, w, h); err == nil {
		t.Errorf("%s: the reference decoder accepts it", name)
	}
}

// TestUnpackRejectsContextTables: the headers only the context-coded form has,
// damaged one way at a time, on the black 40×30 image (B−G 152 bytes, then
// R−G's seven tables from byte 152, the one for residual 0 at 155) and on
// payloads built by hand after stored planes.
func TestUnpackRejectsContextTables(t *testing.T) {
	enc := AppendPacked(nil, flatImage(40, 30, 0, 0, 0))
	splice := func(at, drop int, with ...byte) []byte {
		return slices.Concat(enc[:at], with, enc[at+drop:])
	}
	rejectedByBoth(t, "an over-subscribed context table", splice(155, 2, 2, 0x11, 0x10), 40, 30)
	rejectedByBoth(t, "an under-subscribed context table", splice(156, 1, 0x20), 40, 30)
	rejectedByBoth(t, "every sample in a context whose table is empty", splice(155, 4, 0, 1, 0x10, 0), 40, 30)
	rejectedByBoth(t, "a coded table with no code", splice(155, 2, 1, 0x00), 40, 30)
	for _, p := range []byte{2, 0x80, 0xff} {
		rejectedByBoth(t, fmt.Sprintf("G predictor %d", p), splice(312, 1, p), 40, 30)
	}

	// A 12×10 image: 120 samples a plane, so 45 bytes back it.
	const w, h, n = 12, 10, 120
	stored := func(marker byte) []byte { return append([]byte{marker}, make([]byte, n)...) }
	rejectedByBoth(t, "B−G stored, cut short", stored(0)[:n], w, h)
	rejectedByBoth(t, "R−G stored, cut short", slices.Concat(stored(0), stored(255)[:n]), w, h)
	rejectedByBoth(t, "R−G's last table runs past the payload", slices.Concat(stored(0), []byte{0, 0, 0, 1, 0x10, 0, 0, 2, 0x11}), w, h)
	rejectedByBoth(t, "R−G's tables end with the payload", slices.Concat(stored(0), []byte{0, 0, 0, 1, 0x10, 0}), w, h)
	rejectedByBoth(t, "G's table runs past the payload", slices.Concat(stored(0), stored(255), []byte{3, 0x11}), w, h)
	rejectedByBoth(t, "G without its predictor byte", slices.Concat(stored(0), stored(255), []byte{1, 0x10}), w, h)
	ok := slices.Concat(stored(0), stored(255), []byte{1, 0x10, 1}, make([]byte, n/8))
	if _, err := Unpack(ok, w, h); err != nil {
		t.Fatalf("the hand-built payload these are cut from is refused: %v", err)
	}
	assertUnpackAgrees(t, "hand-built, G by the mean", ok, w, h)
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
		if pl.stored || pl.bits%8 == 0 {
			continue
		}
		padded++
		last := pl.start + pl.header + pl.bits/8
		for bit := pl.bits % 8; bit < 8; bit++ {
			if enc[last]&(0x80>>bit) != 0 {
				t.Fatalf("plane %d: padding bit %d is set", p, bit)
			}
			bad := bytes.Clone(enc)
			bad[last] |= 0x80 >> bit
			rejectedByBoth(t, fmt.Sprintf("plane %d with padding bit %d set", p, bit), bad, im.W, im.H)
		}
	}
	if padded < 2 {
		t.Fatalf("%d planes of the 31x31 crop end inside a byte; pick another crop", padded)
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

// tableLengths reads the code lengths of the table whose H byte is enc[at].
func tableLengths(enc []byte, at int) []int {
	var lens []int
	for _, b := range enc[at+1 : at+1+int(enc[at])] {
		lens = append(lens, int(b>>4), int(b&15))
	}
	return lens
}

// TestPackAllResidualsAndLengthLimit: a plane using all 256 residual values,
// and tables whose counts grow like Fibonacci numbers — for which Huffman's
// code is as deep as it can be, far beyond maxCodeLen — still get complete
// codes of at most maxCodeLen bits, the reference's, and round-trip.
func TestPackAllResidualsAndLengthLimit(t *testing.T) {
	const w, h = 144, 128
	var res [Channels][]uint8
	for p := range res {
		res[p] = make([]uint8, w*h)
	}
	for i := range res[2] {
		res[2][i] = uint8(i) // G: every value, equally often
	}
	// Fibonacci counts 1, 1, 2, 3, … 6765 over 20 values fill 17 710 samples;
	// unlimited, the rarest would get some 18 bits. B−G takes −v, R−G v: R−G
	// samples of v ≥ 3 share the table of B−G residual −3, and v = 0, 1, 2 each
	// have a table of one value.
	at, a, b := 0, 1, 1
	for v := 0; v < 20; v++ {
		for k := 0; k < a; k++ {
			res[0][at], res[1][at] = uint8(-v), uint8(v)
			at++
		}
		a, b = b, a+b
	}
	rand.New(rand.NewPCG(1, 1)).Shuffle(at, func(i, j int) {
		res[0][i], res[0][j] = res[0][j], res[0][i]
		res[1][i], res[1][j] = res[1][j], res[1][i]
	})
	im := imageFromResiduals(w, res)
	enc := assertPacks(t, "all residuals, Fibonacci counts", im)
	_, where := refPack(im)
	if !where[2].stored {
		t.Errorf("a plane of uniform residuals was coded (%d header bytes), not stored", where[2].header)
	}
	complete := func(name string, lens []int, deepest int) {
		t.Helper()
		longest, kraft := 0, 0
		for _, l := range lens {
			if longest = max(longest, l); l > 0 && l <= maxCodeLen {
				kraft += 1 << (maxCodeLen - l)
			}
		}
		if longest != deepest || kraft != 1<<maxCodeLen && !(deepest == 1 && kraft == 1<<(maxCodeLen-1)) {
			t.Errorf("%s: deepest code %d bits, Kraft sum %d/4096; want %d and a complete code", name, longest, kraft, deepest)
		}
	}
	if where[0].stored || where[1].stored {
		t.Fatal("a Fibonacci plane was stored")
	}
	complete("B−G", tableLengths(enc, where[0].tables[0]), maxCodeLen)
	complete("R−G, B−G residual −3", tableLengths(enc, where[1].tables[0]), maxCodeLen)
	for c := 1; c <= 3; c++ {
		complete(fmt.Sprintf("R−G, B−G residual %d", c-3), tableLengths(enc, where[1].tables[c]), 1)
	}
	for c := 4; c < 7; c++ {
		if enc[where[1].tables[c]] != 0 {
			t.Errorf("R−G's table for B−G residual %d, which no pixel has, is %d bytes", c-3, enc[where[1].tables[c]])
		}
	}

	// All 256 values in a coded plane: skewed enough to be worth coding.
	for i := range res[0] {
		if res[0][i] = uint8(i % 5); i%3 == 0 {
			res[0][i] = uint8(i)
		}
	}
	enc = assertPacks(t, "all residuals, skewed", imageFromResiduals(w, res))
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

// TestPackedSizeBounds: each table's code is within Gallager's bound on a
// Huffman code's redundancy — the commonest residual's probability plus 0.086
// bits a sample — of the order-0 entropy of the samples it codes, and where
// no plane is so flat that one residual is most of it (under 2 bits a sample,
// where a whole bit for it is the waste), the packed crop is within 5 % plus
// the table headers of the sum of those entropies. Against the one-table-a-
// plane form this one replaced, the three crops together are at most 0.95 of
// it and each at most 0.98 (the smooth crop gains least); against the DEFLATE
// packing before that, each is at least 9.5 % under and the three 12 %.
// Pixels no Huffman code can shrink are stored, one byte per plane over the
// pixel bytes and never more.
func TestPackedSizeBounds(t *testing.T) {
	packed, perPlane, deflated := 0, 0, 0
	for _, c := range goldenCrops {
		crop := benchCrop(t, c.seed, c.w, c.h, 128, c.detail)
		enc, where := refPack(crop)
		entropy, headers, flattest := 0.0, 0, 8.0 // bits; bytes; bits a sample
		for p, pl := range where {
			if pl.stored {
				t.Fatalf("seed %d: plane %d stored", c.seed, p)
			}
			plane := 0.0
			for k, hist := range pl.hists {
				n, bits, commonest, h := 0, 0, 0, 0.0
				for r, c := range hist {
					n, commonest = n+c, max(commonest, c)
					bits += c * pl.lens[k][refZigzag(uint8(r))]
				}
				for _, c := range hist {
					if c > 0 {
						h -= float64(c) * math.Log2(float64(c)/float64(n))
					}
				}
				if bound := h + float64(commonest) + 0.086*float64(n); float64(bits) > bound {
					t.Errorf("seed %d plane %d table %d: coded in %d bits, entropy %.0f; Gallager's bound is %.0f", c.seed, p, k, bits, h, bound)
				}
				plane += h
			}
			entropy, headers, flattest = entropy+plane, headers+pl.header, min(flattest, plane/float64(crop.W*crop.H))
		}
		if bound := 1.05*entropy/8 + float64(headers); flattest >= 2 && float64(len(enc)) > bound {
			t.Errorf("seed %d: packed to %d bytes, order-0 entropy by table is %.0f; want at most %.0f", c.seed, len(enc), entropy/8, bound)
		}
		prev := len(onePerPlanePack(crop))
		if float64(len(enc)) > 0.98*float64(prev) {
			t.Errorf("seed %d: packed to %d bytes, one table a plane to %d; want at most 0.98 of it", c.seed, len(enc), prev)
		}
		old := len(flatePack(t, crop))
		if float64(len(enc)) > 0.905*float64(old) {
			t.Errorf("seed %d: packed to %d bytes, the DEFLATE packing to %d; want at most 0.905 of it", c.seed, len(enc), old)
		}
		if ratio := float64(len(enc)) / float64(len(crop.Pix)); ratio < 0.25 || ratio > 0.55 {
			t.Errorf("seed %d: packed to %.3f of the pixels, want about 0.3-0.5", c.seed, ratio)
		}
		packed, perPlane, deflated = packed+len(enc), perPlane+prev, deflated+old
	}
	if float64(packed) > 0.95*float64(perPlane) {
		t.Errorf("the three crops pack to %d bytes, one table a plane to %d; want at most 0.95 of it", packed, perPlane)
	}
	if float64(packed) > 0.88*float64(deflated) {
		t.Errorf("the three crops pack to %d bytes, the DEFLATE packing to %d; want at most 0.88 of it", packed, deflated)
	}
	for _, im := range []*Image{noiseImage(1, 1, 1), noiseImage(128, 128, 1), noiseImage(134, 163, 2), noiseImage(300, 300, 3)} {
		if enc := AppendPacked(nil, im); len(enc) != len(im.Pix)+Channels {
			t.Errorf("%dx%d noise packed to %d bytes, want its %d stored and %d marker bytes", im.W, im.H, len(enc), len(im.Pix), Channels)
		}
	}
}

// TestPackedSizeIsExact: PackedSize is len(AppendPacked) for any dimensions
// and content, the predictors' borders — one pixel, one row, one column, two
// columns — included.
func TestPackedSizeIsExact(t *testing.T) {
	content := func(iw, ih int, kind uint8, seed uint64) *Image {
		switch kind % 3 {
		case 0:
			return synthFor(t, seed, iw, ih, float64(seed%10)/10)
		case 1:
			return flatImage(iw, ih, uint8(seed), uint8(seed>>8), uint8(seed>>16))
		}
		return noiseImage(iw, ih, seed)
	}
	exact := func(im *Image) bool { return PackedSize(im) == len(AppendPacked(nil, im)) }
	for n := 1; n <= 64; n++ {
		for kind := uint8(0); kind < 3; kind++ {
			for _, wh := range [][2]int{{1, 1}, {1, n}, {n, 1}, {2, n}, {n, 2}} {
				if im := content(wh[0], wh[1], kind, uint64(n)); !exact(im) {
					t.Errorf("%dx%d, content %d: PackedSize %d, packed to %d", im.W, im.H, kind, PackedSize(im), len(AppendPacked(nil, im)))
				}
			}
		}
	}
	check := func(w, h uint8, kind uint8, seed uint64) bool {
		return exact(content(int(w)%96+1, int(h)%96+1, kind, seed))
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

// headerBits lists every copy of good with one bit of one plane's header —
// each of its tables, and G's predictor byte — flipped.
func headerBits(good []byte, where [Channels]refPlane) [][]byte {
	var out [][]byte
	for _, pl := range where {
		for i := pl.start; i < pl.start+max(pl.header, 1); i++ {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(good)
				bad[i] ^= 1 << bit
				out = append(out, bad)
			}
		}
	}
	return out
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
	long[where[0].start+1] |= 0xd0
	corrupt("a 13-bit code", long, im.W, im.H)
	stored := AppendPacked(nil, noiseImage(8, 8, 1))
	corrupt("stored plane cut short", stored[:len(stored)-1], 8, 8)

	// Every bit of every table header and of G's predictor byte, flipped:
	// refused, or — where the lengths still make complete codes — decoded as
	// the reference decodes it.
	for p, pl := range where {
		if pl.stored {
			t.Fatalf("plane %d of the crop is stored; pick another crop", p)
		}
	}
	for i, bad := range headerBits(good, where) {
		assertUnpackAgrees(t, fmt.Sprintf("header bit flip %d", i), bad, im.W, im.H)
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
// what the reference does. The seeds are packed images cut at every byte and
// with every header bit flipped, R−G's seven tables and G's predictor byte
// included.
func FuzzUnpack(f *testing.F) {
	for _, im := range []*Image{flatImage(5, 4, 1, 2, 3), synthFor(f, 1, 7, 5, 0.7), noiseImage(3, 3, 1), benchCrop(f, 4, 160, 120, 24, 0.5)} {
		good, where := refPack(im)
		f.Add(im.W, im.H, good)
		f.Add(im.W, im.H, append(bytes.Clone(good), 0))
		f.Add(im.H, im.W, good)
		for cut := 0; cut < len(good); cut++ {
			f.Add(im.W, im.H, good[:cut])
		}
		for _, bad := range headerBits(good, where) {
			f.Add(im.W, im.H, bad)
		}
	}
	f.Add(0, 0, []byte{})
	f.Add(1, 1, []byte{1, 0x10, 0, 0, 0, 0, 1, 0x10, 0, 0, 0, 0, 1, 0x10, 1, 0}) // one code each
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
