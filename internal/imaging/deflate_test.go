package imaging

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand/v2"
	"testing"
)

// sjpgPlanes is what Encode deflates — im's quantized planes, delta-coded by
// the reference pass — and where each plane ends.
func sjpgPlanes(im *Image, quality int) ([]byte, [3]int) {
	n, cw, ch := im.W*im.H, (im.W+1)/2, (im.H+1)/2
	planes := make([]byte, n+2*cw*ch)
	ends := [3]int{n, n + cw*ch, n + 2*cw*ch}
	yShift, cShift := shifts(quality)
	fillPlanes(im, yShift, cShift, planes[:n], planes[n:ends[1]], planes[ends[1]:])
	refDeltaEncode(planes[:n], im.W)
	refDeltaEncode(planes[n:ends[1]], cw)
	refDeltaEncode(planes[ends[1]:], cw)
	return planes, ends
}

// deflateBlocks inflates stream to n bytes block by block and returns each
// block's header: BFINAL | BTYPE<<1.
func deflateBlocks(stream []byte, n int) ([]uint32, error) {
	d := &inflater{src: stream, dst: make([]byte, n)}
	var hdrs []uint32
	for {
		if !d.need(3) {
			return hdrs, errInflateTruncated
		}
		hdr := d.take(3)
		hdrs = append(hdrs, hdr)
		var err error
		switch hdr >> 1 {
		case 0:
			err = d.storedBlock()
		case 2:
			if err = d.readCodes(); err == nil {
				err = d.huffmanBlock()
			}
		default:
			err = fmt.Errorf("block type %d", hdr>>1)
		}
		if err != nil || hdr&1 != 0 {
			return hdrs, err
		}
	}
}

// assertStream holds stream, the writer's output for data with blocks ending
// at ends, to both readers and to the writer's contract: each gives back
// exactly data, the stream is no longer than data stored, and only its last
// block is final. It returns the block headers.
func assertStream(t *testing.T, name string, stream, data []byte, ends [3]int) []uint32 {
	t.Helper()
	viaFlate, viaInflate := make([]byte, len(data)), make([]byte, len(data))
	if err := refInflate(stream, viaFlate); err != nil || !bytes.Equal(viaFlate, data) {
		t.Fatalf("%s: compress/flate's reader: %v, or the planes differ", name, err)
	}
	if err := inflateInto(stream, viaInflate); err != nil || !bytes.Equal(viaInflate, data) {
		t.Fatalf("%s: inflateInto: %v, or the planes differ", name, err)
	}
	bound, start := len(data), 0
	for _, end := range ends {
		bound += 5 * max(1, (end-start+maxStored-1)/maxStored)
		start = end
	}
	if len(stream) > bound {
		t.Errorf("%s: %d-byte stream for %d bytes, bound %d", name, len(stream), len(data), bound)
	}
	hdrs, err := deflateBlocks(stream, len(data))
	if err != nil {
		t.Fatalf("%s: block walk: %v", name, err)
	}
	for i, h := range hdrs {
		if final := h&1 != 0; final != (i == len(hdrs)-1) {
			t.Errorf("%s: block %d of %d has BFINAL %v", name, i, len(hdrs), final)
		}
	}
	return hdrs
}

// assertDeflates writes data through deflatePlanes and checks the stream with
// assertStream.
func assertDeflates(t *testing.T, name string, data []byte, ends [3]int) []uint32 {
	t.Helper()
	return assertStream(t, name, deflatePlanes(nil, data, ends), data, ends)
}

// assertEncodes checks Encode(im, quality)'s payload with assertStream
// against the planes sjpgPlanes builds, and returns the stream.
func assertEncodes(t *testing.T, name string, im *Image, quality int) []byte {
	t.Helper()
	data, err := Encode(im, quality)
	if err != nil {
		t.Fatal(err)
	}
	planes, ends := sjpgPlanes(im, quality)
	hdrs := assertStream(t, name, data[headerSize:], planes, ends)
	if len(hdrs) < 3 {
		t.Errorf("%s: %d blocks for three planes", name, len(hdrs))
	}
	return data
}

// TestWriterBenchSetAndGoldens: the golden three and benchSet's 48 images
// read back through both readers; each of the 48 is no larger than the
// compress/flate level-6 stream of its planes that the parent stored, and
// together they are at most 0.985 of those.
func TestWriterBenchSetAndGoldens(t *testing.T) {
	for _, g := range []struct {
		seed          uint64
		w, h, quality int
		detail        float64
	}{{1, 160, 161, 80, 0.5}, {2, 333, 250, 95, 0.9}, {3, 640, 480, 40, 0.2}} {
		assertEncodes(t, fmt.Sprintf("golden %d", g.seed), synthFor(t, g.seed, g.w, g.h, g.detail), g.quality)
	}
	set, err := benchSet()
	if err != nil {
		t.Fatal(err)
	}
	var ours, level6 int
	for i, s := range set {
		name := fmt.Sprintf("benchSet %d (%dx%d)", i, s.im.W, s.im.H)
		data := assertEncodes(t, name, s.im, DefaultQuality)
		planes, _ := sjpgPlanes(s.im, DefaultQuality)
		old := headerSize + len(deflate(t, flate.DefaultCompression, planes))
		if len(data) > old {
			t.Errorf("%s: %d bytes, compress/flate level 6 writes %d", name, len(data), old)
		}
		ours, level6 = ours+len(data), level6+old
	}
	if r := float64(ours) / float64(level6); r > 0.985 {
		t.Errorf("benchSet streams are %.4f of compress/flate's level 6, want at most 0.985", r)
	}
}

// TestWriterDims: Encode over odd and degenerate geometries.
func TestWriterDims(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {3, 5}, {7, 7}, {161, 163}, {640, 480}} {
		im := synthFor(t, uint64(dim[0]*1000+dim[1]), dim[0], dim[1], 0.6)
		for _, q := range refQualities {
			assertEncodes(t, fmt.Sprintf("%dx%d/q%d", dim[0], dim[1], q), im, q)
		}
	}
}

// planeEnds is where the planes of a w×h image end.
func planeEnds(w, h int) [3]int {
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	return [3]int{n, n + cn, n + 2*cn}
}

// TestWriterPlaneShapes: constant planes, alternating planes, random bytes
// (which must be stored), and runs at and around each length edge.
func TestWriterPlaneShapes(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {7, 7}, {640, 480}} {
		ends := planeEnds(dim[0], dim[1])
		for _, shape := range []struct {
			name string
			at   func(i int) byte
		}{
			{"zero", func(int) byte { return 0 }},
			{"one value", func(int) byte { return 0x5a }},
			{"alternating", func(i int) byte { return byte(i&1) * 0xff }},
		} {
			data := make([]byte, ends[2])
			for i := range data {
				data[i] = shape.at(i)
			}
			assertDeflates(t, fmt.Sprintf("%dx%d %s", dim[0], dim[1], shape.name), data, ends)
		}

		data := make([]byte, ends[2])
		rng := rand.New(rand.NewPCG(uint64(dim[0]), 1))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		for i, h := range assertDeflates(t, fmt.Sprintf("%dx%d random", dim[0], dim[1]), data, ends) {
			if h>>1 != 0 {
				t.Errorf("%dx%d random: block %d has type %d, want stored", dim[0], dim[1], i, h>>1)
			}
		}
	}

	for _, n := range []int{3, 4, 5, 258, 259, 260, 516, 517} {
		data := []byte{7, 9}
		data = append(data, bytes.Repeat([]byte{5}, n)...)
		data = append(data, 1, 2, 3)
		assertDeflates(t, fmt.Sprintf("run of %d", n), data, [3]int{2, len(data) - 1, len(data)})
		assertDeflates(t, fmt.Sprintf("run of %d in one plane", n), data, [3]int{len(data) - 2, len(data) - 1, len(data)})
	}

	// A run across Y→Cb and Cb→Cr: Cb's block opens with a run of Y's last byte.
	data := make([]byte, 200)
	for i := range data[:80] {
		data[i] = byte(3 * i)
	}
	for i := 170; i < 200; i++ {
		data[i] = byte(i)
	}
	ends := [3]int{100, 150, 200}
	if at, n := nextRun(data, 100, 150); at != 100 || n != 50 {
		t.Errorf("Cb's first run = %d bytes at %d, want 50 at 100", n, at)
	}
	assertDeflates(t, "run across planes", data, ends)
}

// TestWriterLengthLimits: literal counts in Fibonacci proportion, whose
// Huffman code is deeper than 15 bits, and code lengths whose own code is
// deeper than 7, come out at exactly those limits and read back.
func TestWriterLengthLimits(t *testing.T) {
	deepest := func(lens []uint8) (l int) {
		for _, x := range lens {
			l = max(l, int(x))
		}
		return l
	}
	unlimited := func(freq []int) int {
		lens := make([]uint8, len(freq))
		codeLengths(freq, 64, lens)
		return deepest(lens)
	}

	// Fibonacci counts over 26 literals, shuffled.
	var lit []byte
	for s, a, b := 0, 1, 1; s < 26; s, a, b = s+1, b, a+b {
		lit = append(lit, bytes.Repeat([]byte{byte(s)}, a)...)
	}
	rng := rand.New(rand.NewPCG(26, 26))
	rng.Shuffle(len(lit), func(i, j int) { lit[i], lit[j] = lit[j], lit[i] })

	// Counts 2^(15−l) give a literal exactly l bits. The number of literals
	// of each length roughly doubles from 7 bits to 15, the longest first, each
	// after an unused symbol while there are any, so that the code lengths'
	// own counts — 121 zeros, then 64, 32, … — make a deep code. The
	// commonest literal alternates with the rest, so that nothing runs.
	perLen := []int{1: 1, 1, 1, 1, 1, 0, 1, 2, 2, 2, 4, 8, 16, 32, 63} // and the end-of-block code, 15 bits
	var rest []byte
	common, sym := byte(0), 1
	for l := 15; l >= 1; l-- {
		for k := 0; k < perLen[l]; k++ {
			if l == 1 {
				common = byte(sym)
			} else {
				rest = append(rest, bytes.Repeat([]byte{byte(sym)}, 1<<(15-l))...)
			}
			if sym += 1; sym < 242 {
				sym++
			}
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	var pre []byte
	for _, b := range rest {
		pre = append(pre, common, b)
	}
	pre = append(pre, common)

	// One plane each, read back; then its plan, for the code lengths.
	plan := func(name string, data []byte) *deflateBlock {
		assertDeflates(t, name, data, [3]int{len(data), len(data), len(data)})
		b := new(deflateBlock)
		if b.plan(data, 0, len(data), 0); b.stored {
			t.Fatalf("%s: stored", name)
		}
		return b
	}
	b := plan("Fibonacci literals", lit)
	freq := make([]int, 256)
	for _, v := range lit {
		freq[v]++
	}
	if need, got := unlimited(freq), deepest(b.lens[:]); need <= 15 || got != 15 {
		t.Errorf("Fibonacci literals: deepest code %d bits, unlimited %d; want 15 and more", got, need)
	}
	b = plan("skewed code lengths", pre)
	freq = make([]int, numPrecode)
	for _, s := range b.preSyms[:b.npre] {
		freq[s&31]++
	}
	if need, got := unlimited(freq), deepest(b.pre[:]); need <= 7 || got != 7 {
		t.Errorf("skewed code lengths: deepest code-length code %d bits, unlimited %d; want 7 and more", got, need)
	}
}

// TestLengthCodes: lengthCode agrees with the length table inflate decodes
// by, and sends 258 as symbol 285, not as 284 with extra bits 31.
func TestLengthCodes(t *testing.T) {
	for n := 3; n <= maxRun; n++ {
		sym, extra, v := lengthCode(n)
		e := litLenSyms[sym]
		if base := int(e >> 16); base+int(v) != n || extra != uint(e>>4&15) || v >= 1<<extra || n == maxRun && sym != 285 {
			t.Errorf("run of %d: symbol %d, %d extra bits of value %d", n, sym, extra, v)
		}
	}
}

// fuzzImage turns fuzzer bytes into an image whose pixels repeat pix (zeros
// when pix is empty). Sides are capped at 256, which keeps an exec in the
// milliseconds; TestWriterDims has 640×480.
func fuzzImage(w, h uint16, pix []byte) *Image {
	im := MustNew(1+int(w)%256, 1+int(h)%256)
	for i := range im.Pix {
		if len(pix) > 0 {
			im.Pix[i] = pix[i%len(pix)]
		}
	}
	return im
}

// FuzzEncode: on any image and quality, both readers give back exactly the
// planes, and Decode is the reference decoder's image.
func FuzzEncode(f *testing.F) {
	for _, dim := range [][2]uint16{{0, 0}, {0, 8}, {8, 0}, {2, 4}, {6, 6}, {160, 162}, {255, 255}} {
		f.Add(dim[0], dim[1], uint8(DefaultQuality), []byte{0})
		f.Add(dim[0], dim[1], uint8(94), []byte{0x5a, 0x5a, 0x5a})
		f.Add(dim[0], dim[1], uint8(39), []byte{0, 0, 0, 255, 255, 255})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	noise := make([]byte, 4099)
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	f.Add(uint16(63), uint16(63), uint8(100), noise)
	for _, n := range []int{3, 4, 5, 258, 259, 516} {
		f.Add(uint16(99), uint16(99), uint8(95), append(bytes.Repeat([]byte{9}, 3*n), 1, 2, 3))
	}

	f.Fuzz(func(t *testing.T, w, h uint16, q uint8, pix []byte) {
		im, quality := fuzzImage(w, h, pix), 1+int(q)%100
		data := assertEncodes(t, "fuzz", im, quality)
		want, err := refDecode(data, 0)
		if err != nil {
			t.Fatalf("reference decoder: %v", err)
		}
		got, err := Decode(data)
		if err != nil || !got.Equal(want) {
			t.Fatalf("Decode: %v, or it differs from the reference", err)
		}
		got.Release()
	})
}
