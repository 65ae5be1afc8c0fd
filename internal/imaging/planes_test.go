package imaging

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/raceflag"
)

// The plane coder (planes.go): its writer and its decoder against each other,
// against the reference decoder (reference_test.go), and against streams
// written here a bit at a time under refCodes's codes, which share no code
// with either.

// bitWriter appends bits, most significant first.
type bitWriter struct {
	out []byte
	n   uint // bits used in the last byte; 0 when it is full
}

func (w *bitWriter) bits(v, n uint) {
	for i := n; i > 0; i-- {
		if w.n == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>(i-1)&1) << (7 - w.n)
		w.n = (w.n + 1) % 8
	}
}

// handPlane is one coded plane written by hand: its two tables, then the
// codes of its symbols, zero-padded.
type handPlane struct {
	bitWriter
	codes map[int]string // by position: residuals in zig-zag order, then runs
	vals  []byte         // the byte values with a code, for lits
}

// handCode starts a plane under the code whose lengths lits gives by byte
// value and runs by run symbol (0 for 257, … 28 for 285).
func handCode(lits map[byte]int, runs map[int]int) *handPlane {
	var lens [256 + 30]int
	h, r := 1, 0
	p := &handPlane{}
	for v := range 256 {
		if l, ok := lits[byte(v)]; ok {
			z := refZigzag(byte(v))
			lens[z], h = l, max(h, z/2+1)
			p.vals = append(p.vals, byte(v))
		}
	}
	for k, l := range runs {
		lens[256+k], r = l, max(r, k/2+1)
	}
	p.codes = refCodes(lens[:256+29])
	p.out = append(p.out, byte(h))
	for i := range h {
		p.out = append(p.out, byte(lens[2*i]<<4|lens[2*i+1]))
	}
	p.out = append(p.out, byte(r))
	for i := range r {
		p.out = append(p.out, byte(lens[256+2*i]<<4|lens[256+2*i+1]))
	}
	return p
}

func (p *handPlane) code(z int) *handPlane {
	c, ok := p.codes[z]
	if !ok {
		panic(fmt.Sprintf("position %d has no code", z))
	}
	for _, b := range c {
		p.bits(uint(b-'0'), 1)
	}
	return p
}

func (p *handPlane) lit(vs ...byte) *handPlane {
	for _, v := range vs {
		p.code(refZigzag(v))
	}
	return p
}

// lits writes n literals, cycling through the code's byte values.
func (p *handPlane) lits(n int) *handPlane {
	for i := range n {
		p.lit(p.vals[i%len(p.vals)])
	}
	return p
}

// run writes a run of n as the symbol of the longest base ≤ n.
func (p *handPlane) run(n int) *handPlane {
	k := len(refRunBase) - 1
	for refRunBase[k] > n {
		k--
	}
	p.code(256 + k)
	p.bits(uint(n-refRunBase[k]), uint(refRunExtra[k]))
	return p
}

// sixBits is a complete code of sixty-four 6-bit codes: the byte values
// 0…34 and all 29 run symbols.
func sixBits() *handPlane {
	lits, runs := map[byte]int{}, map[int]int{}
	for v := range 35 {
		lits[byte(v)] = 6
	}
	for k := range runSyms {
		runs[k] = 6
	}
	return handCode(lits, runs)
}

// longCodes is the most lopsided complete code the format allows: the byte
// values 1…11 coded in 1…11 bits, and 12 and run symbol 27 (227–258, five
// extra bits) in 12 — a run of it is the longest symbol, 17 bits.
func longCodes() *handPlane {
	lits := map[byte]int{}
	for v := 1; v <= maxCodeLen; v++ {
		lits[byte(v)] = v
	}
	return handCode(lits, map[int]int{27: maxCodeLen})
}

// codePlanes is the writer's stream of planes.
func codePlanes(planes ...[]byte) []byte {
	var c planeCodes
	out := make([]byte, c.plan(planes...))
	c.put(out, planes...)
	return out
}

// assertInflateAgrees holds inflateInto to the reference decoder: the same
// verdict on src as planes of the given sizes and, on acceptance, the same
// bytes. A single plane is held to it a second time as two of three lanes
// decoded in step, beside a plane whose codes are shorter, so that the lanes
// reach the fast loop's margins apart. It returns the verdict.
func assertInflateAgrees(t testing.TB, src []byte, sizes ...int) (accepted bool) {
	t.Helper()
	got, want := make([][]byte, len(sizes)), make([][]byte, len(sizes))
	for i, n := range sizes {
		got[i], want[i] = make([]byte, n), make([]byte, n)
	}
	err, refErr := inflateInto(src, got...), refInflate(src, want...)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("verdicts differ on %x as planes of %v: inflateInto says %v, the reference %v", src, sizes, err, refErr)
	}
	if len(sizes) == 1 && sizes[0] > 0 {
		var ls [3]lane
		for i, data := range [][]byte{codePlanes(bytes.Repeat([]byte{1, 2, 3, 5}, sizes[0]/4+1)[:sizes[0]]), src, src} {
			ls[i] = lane{data: data, n: 1}
			ls[i].planes[0] = make([]byte, sizes[0])
		}
		if _, stepErr := inflateLanes(ls[:]); (stepErr == nil) != (refErr == nil) {
			t.Fatalf("verdicts differ on %x as a plane of %d decoded in step: %v, the reference %v", src, sizes[0], stepErr, refErr)
		}
		if refErr == nil && (!bytes.Equal(ls[1].planes[0], want[0]) || !bytes.Equal(ls[2].planes[0], want[0])) {
			t.Fatalf("%x decoded in step differs from the reference's", src)
		}
	}
	if err != nil {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("plane %d of %x differs from the reference's", i, src)
		}
	}
	return true
}

// residuals is n bytes shaped like a delta-coded plane: mostly small values
// around zero, with runs.
func residuals(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]byte, n)
	for i := 0; i < n; {
		if rng.IntN(8) == 0 {
			run := min(1+rng.IntN(400), n-i)
			v := byte(rng.IntN(3))
			for j := 0; j < run; j++ {
				out[i+j] = v
			}
			i += run
			continue
		}
		out[i] = byte(int8(rng.NormFloat64() * 6))
		i++
	}
	return out
}

// planeCase is a plane and the writer's stream of it.
type planeCase struct {
	name          string
	plain, stream []byte
}

// planeCorpus is the writer's stream of planes of about n bytes of each kind:
// literals and runs, literals whose codes reach the 12-bit limit, one value
// repeated, noise (stored) and a short plane.
func planeCorpus(n int) []planeCase {
	skewed, noise := make([]byte, n), make([]byte, n)
	rng := rand.New(rand.NewPCG(2, 2))
	for i := range skewed {
		skewed[i] = byte(bits.TrailingZeros32(rng.Uint32() | 1<<24))
		noise[i] = byte(rng.Uint32())
	}
	var out []planeCase
	for _, c := range []struct {
		name  string
		plain []byte
	}{
		{"residuals", residuals(1, n)},
		{"long codes", skewed},
		{"one value", bytes.Repeat([]byte{7}, n)},
		{"noise", noise},
		{"short", residuals(2, 40)},
	} {
		out = append(out, planeCase{c.name, c.plain, codePlanes(c.plain)})
	}
	return out
}

// damaged returns stream cut at every byte of its first 40 and just short
// of its end, and with each of its first 96 bits flipped.
func damaged(stream []byte) [][]byte {
	var out [][]byte
	for cut := 0; cut < len(stream) && cut < 40; cut++ {
		out = append(out, stream[:cut])
	}
	out = append(out, stream[:len(stream)-1])
	for bit := 0; bit < 96 && bit/8 < len(stream); bit++ {
		c := bytes.Clone(stream)
		c[bit/8] ^= 0x80 >> (bit % 8)
		out = append(out, c)
	}
	return out
}

// TestInflateRoundTrip: the corpus reads back through both decoders, alone
// and three planes to a stream; a byte after the planes is refused. A plane
// does not end itself — its size is the header's — so a size one byte off
// is refused, or taken from the padding, by both decoders alike.
func TestInflateRoundTrip(t *testing.T) {
	corpus := planeCorpus(70_000)
	for _, c := range corpus {
		if !assertInflateAgrees(t, c.stream, len(c.plain)) {
			t.Fatalf("%s: refused", c.name)
		}
		got := make([]byte, len(c.plain))
		if err := inflateInto(c.stream, got); err != nil || !bytes.Equal(got, c.plain) {
			t.Fatalf("%s: %v, or the plane differs", c.name, err)
		}
		if stored := c.stream[0] == 0; stored != (c.name == "noise") {
			t.Errorf("%s: stored = %v", c.name, stored)
		}
		if assertInflateAgrees(t, c.stream, 0) {
			t.Fatalf("%s: accepted as no bytes", c.name)
		}
		assertInflateAgrees(t, c.stream, len(c.plain)-1)
		assertInflateAgrees(t, c.stream, len(c.plain)+1)
		if assertInflateAgrees(t, append(bytes.Clone(c.stream), 0), len(c.plain)) {
			t.Fatalf("%s: accepted with a byte after it", c.name)
		}
	}
	a, b, c := corpus[0].plain, corpus[2].plain, corpus[4].plain
	if !assertInflateAgrees(t, codePlanes(a, b, c), len(a), len(b), len(c)) {
		t.Fatal("three planes to a stream refused")
	}
}

// TestHuffTableLongCodes: every symbol of the most lopsided complete code, 1
// to 12 bits and a 17-bit run, looks up through the one 4 096-entry table;
// the code with one 12-bit length too many or too few is refused.
func TestHuffTableLongCodes(t *testing.T) {
	p := longCodes()
	var want []byte
	for v := 1; v <= maxCodeLen; v++ {
		p.lit(byte(v))
		want = append(want, byte(v))
	}
	p.run(257)
	want = append(want, bytes.Repeat([]byte{maxCodeLen}, 257)...)
	got := make([]byte, len(want))
	if err := inflateInto(p.out, got); err != nil || !bytes.Equal(got, want) || !assertInflateAgrees(t, p.out, len(want)) {
		t.Fatalf("the lopsided code: err %v, or the plane differs", err)
	}
	// Value 12 is position 24, the high nibble of the first table's 13th
	// byte, and −13 the low one.
	for name, nibbles := range map[string]byte{"over-subscribed": 0xcc, "incomplete": 0x00} {
		bad := bytes.Clone(p.out)
		bad[13] = nibbles
		if assertInflateAgrees(t, bad, len(want)) {
			t.Errorf("%s code accepted", name)
		}
	}
}

// inflateRejection is one hand-built plane: whether it decodes to exactly n
// bytes.
type inflateRejection struct {
	name   string
	stream []byte
	n      int
	accept bool
}

// inflateRejections lists the planes the format refuses, most beside an
// accepted neighbour.
func inflateRejections() []inflateRejection {
	// Every byte value in eight bits: the first table at its largest, H = 128.
	all8 := append(append([]byte{128}, bytes.Repeat([]byte{0x88}, 128)...), 0)
	over := slices.Clone(all8)
	over[0] = 129
	over = slices.Insert(over, 129, 0x88)
	lone := func() *handPlane { return handCode(map[byte]int{5: 1}, nil) }
	six := sixBits().out // its header: H = 35 and 35 bytes, then R = 15 and 15 bytes
	at := func(stream []byte, i int, v byte) []byte {
		c := slices.Clone(stream)
		c[i] = v
		return c
	}
	r16 := slices.Insert(at(six, 36, 16), 52, 0)
	padSet := sixBits().lits(1).out
	padSet[len(padSet)-1] |= 1
	long258 := longCodes().lit(1)
	long258.code(256 + 27)
	long258.bits(31, 5)
	return []inflateRejection{
		{"stored", []byte{0, 1, 2, 3}, 3, true},
		{"stored cut short", []byte{0, 1, 2}, 3, false},
		{"nothing", nil, 1, false},
		{"H 128", append(slices.Clone(all8), 0x10, 0x20, 0x30), 3, true},
		{"H 129", append(over, 0x10, 0x20, 0x30), 3, false},
		{"R 15", sixBits().lits(1).run(258).out, 259, true},
		{"R 16", append(r16, 0), 1, false},
		{"the 30th run length", append(at(six, 51, six[51]|6), 0), 1, false},
		{"code length 13", append(at(six, 1, 0xd6), 0), 1, false},
		{"over-subscribed", append(handCode(map[byte]int{0: 1, 1: 1, 2: 1}, nil).out, 0), 1, false},
		{"incomplete", append(handCode(map[byte]int{0: 2, 1: 2}, nil).out, 0), 1, false},
		{"no lengths", []byte{1, 0, 0, 0}, 1, false},
		{"lone code", lone().lit(5, 5, 5).out, 3, true},
		{"lone code, the other bit", append(lone().out, 0x80), 1, false},
		{"run at plane start", sixBits().run(3).lits(1).out, 4, false},
		{"run after one literal", sixBits().lits(1).run(3).out, 4, true},
		{"run past the plane", sixBits().lits(1).run(3).out, 3, false},
		{"run of 258 as symbol 284", long258.out, 259, true},
		{"pad bit set", padSet, 1, false},
		{"one literal", sixBits().lits(1).out, 1, true},
		{"a byte after the plane", append(sixBits().lits(1).out, 0), 1, false},
	}
}

// planeStreams frames plane, coded to n bytes, as the Cr plane of an SJPG
// stream and of an SJPR base scan (a 2n×1 image), and as the refinement scans
// of a 4n×1 image's containers: one scan, and three decoded in step. The
// other planes are coded by the writer.
func planeStreams(plane []byte, n int) (sjpg, base, refine, inStep []byte) {
	zeros := func(k int) []byte { return codePlanes(make([]byte, k)) }
	payload, wide := slices.Concat(zeros(2*n), zeros(n), plane), slices.Concat(zeros(4*n), zeros(2*n), zeros(2*n))
	return sjpgOver(2*n, 1, payload), sjprOver(2*n, 1, payload), sjprOver(4*n, 1, wide, plane), sjprOver(4*n, 1, wide, plane, plane, plane)
}

// entryPoints decodes plane, coded to n bytes, through every entry point in
// each of planeStreams's frames. A scan longer than the writer's worst case —
// 4n + 3 bytes for the base scan of a 2n×1 image, n + 1 for the refinement
// scan of a 4n×1 one — is refused from the index; accept says whether the
// plane is.
func entryPoints(t *testing.T, plane []byte, n int, accept bool) {
	t.Helper()
	sjpg, base, refine, inStep := planeStreams(plane, n)
	baseFits := len(sjpg)-headerSize <= 4*n+3
	refineFits := len(plane) <= n+1
	rect := Rect{W: 1, H: 1}
	for _, c := range []struct {
		name   string
		accept bool
		decode func() (*Image, error)
	}{
		{"Decode", accept, func() (*Image, error) { return Decode(sjpg) }},
		{"DecodeCropResize", accept, func() (*Image, error) { return DecodeCropResize(sjpg, rect, 1, 1) }},
		{"DecodeProgressive", accept && baseFits, func() (*Image, error) { im, _, err := DecodeProgressive(base); return im, err }},
		{"DecodeAtFidelity", accept && baseFits, func() (*Image, error) { return DecodeAtFidelity(base, 1) }},
		{"DecodeProgressiveCropResize", accept && baseFits, func() (*Image, error) { return DecodeProgressiveCropResize(base, rect, 1, 1) }},
		{"DecodeProgressive/refinement", accept && refineFits, func() (*Image, error) { im, _, err := DecodeProgressive(refine); return im, err }},
		{"DecodeAtFidelity/refinement", accept && refineFits, func() (*Image, error) { return DecodeAtFidelity(refine, 2) }},
		{"DecodeProgressiveCropResize/in step", accept && refineFits, func() (*Image, error) { return DecodeProgressiveCropResize(inStep, rect, 1, 1) }},
	} {
		im, err := c.decode()
		switch {
		case c.accept && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.accept && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: err %v, want ErrCorrupt", c.name, err)
		}
		if err == nil {
			im.Release()
		}
	}
}

// TestInflateRejections: each refused plane is refused by both decoders and
// is ErrCorrupt from every entry point, and its accepted neighbour accepted;
// an accepted plane cut inside its tables is refused.
func TestInflateRejections(t *testing.T) {
	for _, c := range inflateRejections() {
		t.Run(c.name, func(t *testing.T) {
			if got := assertInflateAgrees(t, c.stream, c.n); got != c.accept {
				t.Errorf("accepted = %v, want %v", got, c.accept)
			}
			entryPoints(t, c.stream, c.n, c.accept)
		})
	}
	stream := sixBits().lits(1).run(258).out
	for cut := 0; cut <= 2+35+15; cut++ {
		if assertInflateAgrees(t, stream[:cut], 259) {
			t.Fatalf("accepted cut at header byte %d", cut)
		}
		entryPoints(t, stream[:cut], 259, false)
	}
}

// handoverStream is one hand-built stream of planes of the given sizes.
type handoverStream struct {
	name   string
	stream []byte
	sizes  []int
}

// handoverStreams lists streams built around the places the fast loop hands
// over to the careful one; every one is accepted.
func handoverStreams() []handoverStream {
	var out []handoverStream
	// The output margin. A run whose pass starts fastOut + d bytes before the
	// plane's end after lead literals: the pass is the fast loop's last at
	// d = 0, where a run of 258 after two literals stores up to the plane's
	// last byte, and the careful loop's first at d = −1. t literals follow the
	// run; t of 0…8 puts the run in the careful loop, ending t bytes short of
	// the plane. Under longCodes the run's pass takes 41 bits, the most any
	// pass can.
	for _, code := range []struct {
		name  string
		new   func() *handPlane
		runs  []int
		heavy byte // the literal with the longest code
	}{
		{"six bits", sixBits, []int{3, 4, 8, 9, 10, 258}, 0},
		{"long codes", longCodes, []int{227, 250, 257}, maxCodeLen},
	} {
		for _, r := range code.runs {
			for lead := range 3 {
				tails := []int{0, 1, 7, 8}
				for _, d := range []int{-1, 0, 1, 7, 8} {
					if tail := fastOut - r - lead + d; tail >= 0 {
						tails = append(tails, tail)
					}
				}
				for _, tail := range tails {
					p := code.new().lits(30)
					for range lead {
						p.lit(code.heavy)
					}
					p.run(r).lits(tail)
					out = append(out, handoverStream{
						fmt.Sprintf("%s: run of %d after %d literals, %d after it", code.name, r, lead, tail),
						p.out, []int{30 + lead + r + tail}})
				}
			}
		}
	}
	// The longest passes of lanes in step: four 12-bit literals, or three and
	// a 17-bit run, from each of the eight alignments to a byte the 1-bit
	// literals ahead of them leave.
	for align := range 8 {
		p := longCodes().lits(1)
		for range align {
			p.lit(1)
		}
		for range 40 {
			p.lit(maxCodeLen, maxCodeLen, maxCodeLen, maxCodeLen).run(257)
		}
		out = append(out, handoverStream{fmt.Sprintf("long codes: 40 × four 12-bit literals and a 17-bit run, %d bits in", align),
			p.out, []int{1 + align + 40*(4+257)}})
	}
	// The input margin: runs take few bits, so the input runs out with the
	// output margin wide open. A stored plane of s bytes after the first
	// leaves 0…9 bytes past its codes for the fast loop's loads.
	for _, code := range []struct {
		name string
		new  func() *handPlane
		run  int
	}{{"six bits", sixBits, 258}, {"long codes", longCodes, 257}} {
		for q := 1; q <= 24; q++ {
			p := code.new().lits(1)
			for range q {
				p.run(code.run)
			}
			n := 1 + q*code.run
			out = append(out, handoverStream{fmt.Sprintf("%s: %d runs", code.name, q), p.out, []int{n}})
			for s := 1; s <= 9; s++ {
				out = append(out, handoverStream{fmt.Sprintf("%s: %d runs, then %d bytes stored", code.name, q, s),
					append(slices.Clone(p.out), append([]byte{0}, make([]byte, s)...)...), []int{n, s}})
			}
		}
	}
	return out
}

// TestInflateHandover: every hand-over stream is accepted by both decoders,
// which agree on it as planes one byte longer or shorter; cut at any byte,
// it is refused.
func TestInflateHandover(t *testing.T) {
	for i, c := range handoverStreams() {
		if !assertInflateAgrees(t, c.stream, c.sizes...) {
			t.Fatalf("%s: refused", c.name)
		}
		for _, d := range []int{-1, 1} {
			sizes := slices.Clone(c.sizes)
			sizes[0] += d
			assertInflateAgrees(t, c.stream, sizes...)
		}
		if hurried() && i%8 != 0 { // cut one stream in eight
			continue
		}
		planes := make([][]byte, len(c.sizes))
		for p, n := range c.sizes {
			planes[p] = make([]byte, n)
		}
		for cut := range c.stream {
			if inflateInto(c.stream[:cut], planes...) == nil {
				t.Fatalf("%s: accepted cut at byte %d", c.name, cut)
			}
		}
	}
}

// TestInflateHandoverRefusals: what the fast loop meets with both margins
// open and must leave to the careful loop to refuse — a bit pattern with no
// code, as the first, second and third symbol of a pass, and a run at the
// start of the plane.
func TestInflateHandoverRefusals(t *testing.T) {
	const n = 2000 // one bit a literal: 250 bytes of input
	good := handCode(map[byte]int{5: 1}, nil)
	header := len(good.out)
	for range n {
		good.lit(5)
	}
	if !assertInflateAgrees(t, good.out, n) {
		t.Fatal("the lone code's plane refused")
	}
	for _, bit := range []int{0, 1, 2, 3, 4, 5, 600, 601, 602, n - 1} {
		bad := slices.Clone(good.out)
		bad[header+bit/8] |= 0x80 >> (bit % 8)
		if assertInflateAgrees(t, bad, n) {
			t.Errorf("no code at bit %d accepted", bit)
		}
	}
	if assertInflateAgrees(t, sixBits().run(258).lits(300).out, 558) {
		t.Error("a run at the plane's start accepted")
	}
	if !assertInflateAgrees(t, sixBits().lits(1).run(257).lits(300).out, 558) {
		t.Error("a run after one literal refused")
	}
}

// TestInflateIntoDoesNotAllocate: the table and the code lengths are pooled
// or on the stack.
func TestInflateIntoDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching")
	}
	for _, c := range planeCorpus(20_000) {
		dst := make([]byte, len(c.plain))
		if allocs := testing.AllocsPerRun(10, func() {
			if err := inflateInto(c.stream, dst); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("%s: %.1f allocs per call at steady state", c.name, allocs)
		}
	}
}

// TestInflateMatchesReferenceOnDamage: cut and bit-flipped headers, then
// random mutations anywhere, get the reference's verdict.
func TestInflateMatchesReferenceOnDamage(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 40
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for _, c := range planeCorpus(20_000) {
		for _, d := range damaged(c.stream) {
			assertInflateAgrees(t, d, len(c.plain))
		}
		for i := 0; i < rounds; i++ {
			d := bytes.Clone(c.stream)
			for m := 1 + rng.IntN(3); m > 0; m-- {
				switch rng.IntN(3) {
				case 0:
					d[rng.IntN(len(d))] ^= 1 << rng.IntN(8)
				case 1:
					d[rng.IntN(len(d))] = byte(rng.IntN(256))
				default:
					d = d[:rng.IntN(len(d))+1]
				}
			}
			assertInflateAgrees(t, d, len(c.plain))
		}
	}
	// Small random planes, each with mutations.
	for i := 0; i < rounds; i++ {
		plain := residuals(uint64(i), 1+rng.IntN(3000))
		stream := codePlanes(plain)
		if !assertInflateAgrees(t, stream, len(plain)) {
			t.Fatal("the writer's stream refused")
		}
		for m := 0; m < 20; m++ {
			c := bytes.Clone(stream)
			c[rng.IntN(len(c))] ^= 1 << rng.IntN(8)
			assertInflateAgrees(t, c, len(plain))
		}
	}
}

// FuzzInflate: inflateInto and the reference decoder agree on whether data
// is one coded plane of n bytes and, when it is, on the bytes.
func FuzzInflate(f *testing.F) {
	for _, c := range planeCorpus(8_000) {
		f.Add(c.stream, len(c.plain))
		for _, d := range damaged(c.stream) {
			f.Add(d, len(c.plain))
		}
	}
	for _, c := range handoverStreams() {
		f.Add(c.stream, c.sizes[0])
	}
	for _, c := range inflateRejections() {
		f.Add(c.stream, c.n)
	}
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<20 {
			return
		}
		assertInflateAgrees(t, data, n)
	})
}

// sjpgPlanes is what Encode codes — im's quantized planes, delta-coded by the
// reference pass — and the three planes cut from them.
func sjpgPlanes(im *Image, quality int) ([]byte, [][]byte) {
	n, cw, ch := im.W*im.H, (im.W+1)/2, (im.H+1)/2
	planes := make([]byte, n+2*cw*ch)
	yShift, cShift := shifts(quality)
	split := refSplit(planes, im.W, im.H)
	fillPlanes(im, yShift, cShift, split[0], split[1], split[2])
	refDeltaEncode(split[0], im.W)
	refDeltaEncode(split[1], cw)
	refDeltaEncode(split[2], cw)
	return planes, split
}

// assertEncodes checks Encode(im, quality)'s payload: both decoders give back
// the planes sjpgPlanes builds, and it is no longer than those planes stored.
// It returns the stream.
func assertEncodes(t *testing.T, name string, im *Image, quality int) []byte {
	t.Helper()
	data, err := Encode(im, quality)
	if err != nil {
		t.Fatal(err)
	}
	planes, split := sjpgPlanes(im, quality)
	got := make([]byte, len(planes))
	if err := refInflate(data[headerSize:], refSplit(got, im.W, im.H)...); err != nil || !bytes.Equal(got, planes) {
		t.Fatalf("%s: the reference decoder: %v, or the planes differ", name, err)
	}
	if !assertInflateAgrees(t, data[headerSize:], len(split[0]), len(split[1]), len(split[2])) {
		t.Fatalf("%s: refused", name)
	}
	if len(data)-headerSize > len(planes)+3 {
		t.Errorf("%s: %d-byte payload for %d bytes of planes", name, len(data)-headerSize, len(planes))
	}
	return data
}

// parentSJPG and parentSJPR are what the DEFLATE writers stored for benchSet
// (SJPG version 1: deflate.go; SJPR version 2: compress/flate level 6).
var (
	parentSJPG = [48]int{
		86707, 190535, 197615, 144929, 118570, 101286, 157990, 82098, 124055, 43838, 69762, 53995,
		78580, 212652, 117720, 114373, 136346, 93077, 18130, 93074, 211239, 93807, 75295, 51257,
		26322, 164297, 85668, 15651, 123423, 246032, 35262, 18087, 89538, 94823, 229326, 51506,
		19879, 78825, 119610, 54376, 44808, 69172, 228457, 63761, 38306, 110101, 119564, 38796,
	}
	parentSJPR = 5411407
)

// TestWriterBenchSetAndGoldens: the golden three and benchSet's 48 images read
// back through both decoders; no benchSet image is larger than the DEFLATE
// writer stored it, and its SJPR containers are at most 2 % larger in all.
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
	prog, err := benchProgressive()
	if err != nil {
		t.Fatal(err)
	}
	var sjpg, old, sjpr int
	for i, s := range set {
		name := fmt.Sprintf("benchSet %d (%dx%d)", i, s.im.W, s.im.H)
		data := assertEncodes(t, name, s.im, DefaultQuality)
		if len(data) > parentSJPG[i] {
			t.Errorf("%s: %d bytes, the DEFLATE writer stored %d", name, len(data), parentSJPG[i])
		}
		sjpg, old, sjpr = sjpg+len(data), old+parentSJPG[i], sjpr+len(prog[i])
	}
	t.Logf("SJPG %.4f, SJPR %.4f of the DEFLATE writers' bytes", float64(sjpg)/float64(old), float64(sjpr)/float64(parentSJPR))
	if float64(sjpr) > 1.02*float64(parentSJPR) {
		t.Errorf("benchSet's containers are %d bytes, %.4f of compress/flate's %d", sjpr, float64(sjpr)/float64(parentSJPR), parentSJPR)
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

// assertCodes writes planes through the writer and holds the stream to both
// decoders and to its bound, the planes stored. It returns each plane's
// stream.
func assertCodes(t *testing.T, name string, planes ...[]byte) [][]byte {
	t.Helper()
	sizes, bound := make([]int, len(planes)), 0
	var each [][]byte
	for i, p := range planes {
		sizes[i], bound = len(p), bound+1+len(p)
		each = append(each, codePlanes(p))
	}
	stream := codePlanes(planes...)
	if !bytes.Equal(stream, bytes.Join(each, nil)) {
		t.Fatalf("%s: the planes are not coded each on its own", name)
	}
	if !assertInflateAgrees(t, stream, sizes...) {
		t.Fatalf("%s: refused", name)
	}
	got := make([][]byte, len(planes))
	for i, p := range planes {
		got[i] = make([]byte, len(p))
	}
	if err := inflateInto(stream, got...); err != nil || !bytes.Equal(bytes.Join(got, nil), bytes.Join(planes, nil)) {
		t.Fatalf("%s: %v, or the planes differ", name, err)
	}
	if len(stream) > bound {
		t.Errorf("%s: %d-byte stream for %d bytes, bound %d", name, len(stream), bound-len(planes), bound)
	}
	return each
}

// TestWriterPlaneShapes: constant planes, alternating planes, random bytes
// (which must be stored), runs at and around each length edge, and a plane
// that opens with the byte the one before it ends in.
func TestWriterPlaneShapes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 49, 307200} {
		for _, shape := range []struct {
			name string
			at   func(i int) byte
		}{
			{"zero", func(int) byte { return 0 }},
			{"one value", func(int) byte { return 0x5a }},
			{"alternating", func(i int) byte { return byte(i&1) * 0xff }},
		} {
			p := make([]byte, n)
			for i := range p {
				p[i] = shape.at(i)
			}
			assertCodes(t, fmt.Sprintf("%d bytes %s", n, shape.name), p)
		}
		p := make([]byte, n)
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		if s := assertCodes(t, fmt.Sprintf("%d random bytes", n), p); s[0][0] != 0 {
			t.Errorf("%d random bytes: coded, want stored", n)
		}
	}
	for _, n := range []int{3, 4, 5, 258, 259, 260, 261, 262, 516, 517} {
		p := append(append([]byte{7, 9}, bytes.Repeat([]byte{5}, n)...), 1, 2, 3)
		assertCodes(t, fmt.Sprintf("run of %d", n), p)
		assertCodes(t, fmt.Sprintf("run of %d, then a plane of it", n), p[:2+n], p[2:])
	}
}

// TestNextRunMatchesBytewise: the word-at-a-time search finds the runs a
// byte at a time does, from every position of planes over two and three
// values, where short repeats are everywhere.
func TestNextRunMatchesBytewise(t *testing.T) {
	bytewise := func(p []byte, i int) (int, int) {
		for at := max(i, 1); at+minRun <= len(p); at++ {
			n := 0
			for at+n < len(p) && n < maxRun && p[at+n] == p[at-1] {
				n++
			}
			if n >= minRun {
				return at, n
			}
		}
		return len(p), 0
	}
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := range 400 {
		p := make([]byte, rng.IntN(600))
		for i := range p {
			p[i] = byte(rng.IntN(2 + trial%2))
		}
		for i := range len(p) + 1 {
			at, n := nextRun(p, i)
			if wantAt, wantN := bytewise(p, i); at != wantAt || n != wantN {
				t.Fatalf("%x from %d: run of %d at %d, want %d at %d", p, i, n, at, wantN, wantAt)
			}
		}
	}
}

// TestWriterLengthLimits: literal counts in Fibonacci proportion, whose
// Huffman code is deeper than 12 bits, come out at exactly 12 and read back.
func TestWriterLengthLimits(t *testing.T) {
	var plane []byte
	freq := make([]int, 26)
	for s, a, b := 0, 1, 1; s < 26; s, a, b = s+1, b, a+b {
		plane, freq[s] = append(plane, bytes.Repeat([]byte{byte(s)}, a)...), a
	}
	rng := rand.New(rand.NewPCG(26, 26))
	rng.Shuffle(len(plane), func(i, j int) { plane[i], plane[j] = plane[j], plane[i] })
	assertCodes(t, "Fibonacci literals", plane)
	deepest := func(lens []uint8) (l uint8) {
		for _, x := range lens {
			l = max(l, x)
		}
		return l
	}
	unlimited := make([]uint8, len(freq))
	codeLengths(freq, 64, unlimited)
	var c planeCode
	if c.plan(plane); c.h == 0 || deepest(unlimited) <= maxCodeLen || deepest(c.lens[:]) != maxCodeLen {
		t.Errorf("deepest code %d bits, unlimited %d; want %d and more", deepest(c.lens[:]), deepest(unlimited), maxCodeLen)
	}
}

// TestLengthCodes: lengthCode agrees with RFC 1951's length table and with
// the lookup entries the decoder fills, and sends 258 as symbol 285, not as
// 284 with extra bits 31.
func TestLengthCodes(t *testing.T) {
	for n := 3; n <= maxRun; n++ {
		sym, extra, v := lengthCode(n)
		e := symEntry[256+sym]
		if refRunBase[sym]+int(v) != n || int(extra) != refRunExtra[sym] || v >= 1<<extra ||
			int(e>>8)+3 != refRunBase[sym] || uint(e>>4&7) != extra || e&0x8f != 0x80 {
			t.Errorf("run of %d: symbol %d, %d extra bits of value %d, entry %#x", n, 257+sym, extra, v, e)
		}
	}
	if sym, _, _ := lengthCode(maxRun); sym != runSyms-1 {
		t.Errorf("258 sent as symbol %d", 257+sym)
	}
}
