package imaging

import (
	"fmt"
	"testing"
)

// Streams built symbol by symbol around the places where huffmanBlock's fast
// loop hands over to the careful one: the output margin, the input margin, the
// three lookups one refill pays for, the three ways a match is copied, and
// the block boundary. compress/flate's reader is the verdict on every one.

// blockWriter writes the symbols of one Huffman block.
type blockWriter struct {
	*bitWriter
	litLens, distLens   []uint8
	litCodes, distCodes []uint
}

// canonicalCodes assigns the codes RFC 1951 §3.2.2 does: in symbol order
// within a length, shorter lengths first.
func canonicalCodes(lens []uint8) []uint {
	var count, next [maxCode + 1]uint
	for _, n := range lens {
		if n > 0 {
			count[n]++
		}
	}
	code := uint(0)
	for n := 1; n <= maxCode; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint, len(lens))
	for s, n := range lens {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// huffman opens a block under the fixed code (litLens nil) or under the
// dynamic code with the given lengths, whose header it writes the plain way:
// a code-length code of sixteen 4-bit symbols, one per length, no repeats.
func (w *bitWriter) huffman(last bool, litLens, distLens []uint8) *blockWriter {
	final := uint(0)
	if last {
		final = 1
	}
	w.bits(final, 1)
	if litLens == nil {
		w.bits(1, 2)
		litLens, distLens = fixedLitLens[:], fixedDistLens[:]
	} else {
		w.bits(2, 2).bits(uint(len(litLens))-257, 5).bits(uint(len(distLens))-1, 5).bits(numPrecode-4, 4)
		for _, sym := range precodeOrder {
			if sym < 16 {
				w.bits(4, 3)
			} else {
				w.bits(0, 3)
			}
		}
		for _, n := range append(append([]uint8(nil), litLens...), distLens...) {
			w.code(uint(n), 4)
		}
	}
	return &blockWriter{w, litLens, distLens, canonicalCodes(litLens), canonicalCodes(distLens)}
}

func (b *blockWriter) sym(lens []uint8, codes []uint, s int) {
	if lens[s] == 0 {
		panic(fmt.Sprintf("symbol %d has no code in this block", s))
	}
	b.code(codes[s], uint(lens[s]))
}

func (b *blockWriter) lit(bs ...byte) *blockWriter {
	for _, v := range bs {
		b.sym(b.litLens, b.litCodes, int(v))
	}
	return b
}

// lits writes n literals counting up from first (all below 144: one byte each
// under the fixed code).
func (b *blockWriter) lits(first byte, n int) *blockWriter {
	for i := 0; i < n; i++ {
		b.lit(first + byte(i%40))
	}
	return b
}

// match writes a length/distance pair, found in the decoder's own symbol
// tables: the last symbol whose base is not above the value.
func (b *blockWriter) match(length, back int) *blockWriter {
	pair := func(syms []uint32, first, last, v int, lens []uint8, codes []uint) {
		for s := last; s >= first; s-- {
			if base := int(syms[s] >> 16); base <= v {
				b.sym(lens, codes, s)
				b.bits(uint(v-base), uint(syms[s]>>4&15))
				return
			}
		}
		panic(fmt.Sprintf("no symbol for %d", v))
	}
	pair(litLenSyms[:], 257, 285, length, b.litLens, b.litCodes)
	pair(distSyms[:], 0, maxHDist-1, back, b.distLens, b.distCodes)
	return b
}

func (b *blockWriter) eob() *bitWriter {
	b.sym(b.litLens, b.litCodes, 256)
	return b.bitWriter
}

// stored writes one stored block.
func (w *bitWriter) stored(last bool, data []byte) *bitWriter {
	final := uint(0)
	if last {
		final = 1
	}
	n := uint16(len(data))
	return w.bits(final, 3).align().bytes(byte(n), byte(n>>8), byte(^n), byte(^n>>8)).bytes(data...)
}

// The dynamic code of the hand-over streams: lengths 1, 2, …, 14, 15, 15 over
// sixteen literal/length symbols, so 'l'…'p' sit in the overflow tables, and
// eight 3-bit distance codes (1…16).
var (
	longLitLens = func() []uint8 {
		lens := make([]uint8, 286)
		for i, s := range []int{'a', 'b', 'c', 256, 257, 285, 262, 263, 'd', 'e', 'l', 'm', 'n', 'o', 'p', 'q'} {
			lens[s] = uint8(min(i+1, maxCode))
		}
		return lens
	}()
	longDistLens = []uint8{3, 3, 3, 3, 3, 3, 3, 3}
)

// handoverStream is one hand-built stream and the size it inflates to.
type handoverStream struct {
	name   string
	stream []byte
	n      int
}

// handoverStreams lists the streams; every one is accepted.
func handoverStreams() []handoverStream {
	var out []handoverStream
	add := func(n int, w *bitWriter, format string, args ...any) {
		name := fmt.Sprintf(format, args...)
		out = append(out, handoverStream{name, w.out, n})
		// Bytes after the final block keep the input margin from stopping the
		// fast loop first, so the output margin, or the end of block, does.
		out = append(out, handoverStream{name + ", followed", append(append([]byte(nil), w.out...), make([]byte, 2*fastIn)...), n})
	}
	// head opens with nine different literals and three long runs: the fast
	// loop is running, and every distance up to nine copies something
	// recognisable. tail is 536 bytes in 38 bytes of input: both margins hold
	// for whatever comes before it.
	const headLen, tailLen = 9 + 3*258, 2*258 + 20
	head := func(b *blockWriter) *blockWriter {
		return b.lits('0', 9).match(258, 9).match(258, 1).match(258, 200)
	}
	tail := func(b *blockWriter) *bitWriter { return b.match(258, 1).match(258, 7).lits('A', 20).eob() }

	// The last match against the end of the output.
	for _, short := range []int{0, 1, 8, 9, 265, 266, 269, 270} {
		for _, back := range []int{1, 5, 300} {
			w := head(new(bitWriter).huffman(true, nil, nil)).match(258, back).lits('A', short).eob()
			add(headLen+258+short, w, "last match %d short of the end, back %d", short, back)
		}
	}
	// The input running out: with one byte per literal, some boundary between
	// two of them has exactly 15, 16 and 17 bytes left for every m from 17 up.
	for m := 0; m <= 24; m++ {
		w := head(new(bitWriter).huffman(true, nil, nil)).lits('A', m).match(258, 2).match(258, 1).eob()
		add(headLen+m+2*258, w, "%d one-byte literals before the last five bytes", m)
	}
	// Every run of four drawn from a short literal, two overflow-table
	// literals (11 and 15 bits) and a match: each is second and third after a
	// refill in some run, and first after the refill a match forces.
	for code := 0; code < 4*4*4*4; code++ {
		b := new(bitWriter).huffman(true, longLitLens, longDistLens).lit('a', 'b', 'c')
		n, name := 3, ""
		for c := code; len(name) < 4; c /= 4 {
			switch c % 4 {
			case 0:
				b.lit('a')
				n, name = n+1, name+"a"
			case 1:
				b.lit('l')
				n, name = n+1, name+"l"
			case 2:
				b.lit('q')
				n, name = n+1, name+"q"
			default:
				b.match(3, 3)
				n, name = n+3, name+"M"
			}
		}
		w := b.match(258, 5).match(258, 1).lit('q', 'p', 'q', 'o', 'q', 'n', 'q', 'm', 'q', 'l', 'q', 'e', 'q', 'd', 'q', 'q').eob()
		add(n+2*258+16, w, "run %s", name)
	}
	// Every way a match is copied, at the lengths around one 8-byte store.
	for back := 1; back <= 9; back++ {
		for _, length := range []int{3, 8, 9, 258} {
			w := tail(new(bitWriter).huffman(true, nil, nil).lits('0', 9).match(length, back))
			add(9+length+tailLen, w, "back %d length %d", back, length)
		}
	}
	// Blocks of all three types in one stream, the Huffman ones long enough
	// for the fast loop and cut off by an end-of-block code in mid-flight.
	text := residuals(3, 700)
	w := new(bitWriter).stored(false, text[:300])
	head(w.huffman(false, nil, nil)).match(100, 1000).eob()
	w.huffman(false, longLitLens, longDistLens).lit('a', 'q', 'l').match(258, 16).match(258, 3).lit('p').eob()
	w.stored(false, text[300:])
	w.stored(false, nil)
	w.huffman(false, longLitLens, longDistLens).lit('b').eob()
	tail(head(w.huffman(true, nil, nil)))
	add(300+headLen+100+3+2*258+1+400+1+headLen+tailLen, w, "stored, fixed, dynamic, stored, stored, dynamic, fixed")
	return out
}

// TestInflateHandover: every hand-over stream, whole and cut at every byte,
// gets compress/flate's verdict and bytes — and one byte more or less than it
// holds is refused.
func TestInflateHandover(t *testing.T) {
	streams := handoverStreams()
	for i, c := range streams {
		if !assertInflateAgrees(t, c.stream, c.n) {
			t.Fatalf("%s: rejected as %d bytes", c.name, c.n)
		}
		if assertInflateAgrees(t, c.stream, c.n-1) || assertInflateAgrees(t, c.stream, c.n+1) {
			t.Fatalf("%s: accepted at a size it does not hold", c.name)
		}
		if hurried() && i%8 != 0 { // cut one stream in eight
			continue
		}
		for cut := range c.stream {
			assertInflateAgrees(t, c.stream[:cut], c.n)
		}
	}
}

// TestInflateHandoverRefusals: what the fast loop meets with both margins
// wide open and must leave to the careful loop to refuse — a reserved length
// or distance symbol, a distance reaching before the output — after zero, one
// and two literals of the same pass.
func TestInflateHandoverRefusals(t *testing.T) {
	for lits := 0; lits <= 2; lits++ {
		n := 9 + 2*258 + lits
		// bad writes the symbols under test into a block with n bytes out.
		stream := func(bad func(b *blockWriter)) []byte {
			b := new(bitWriter).huffman(true, nil, nil).lits('0', 9).match(258, 9).match(258, 1).lits('A', lits)
			bad(b)
			return b.match(258, 1).match(258, 7).lits('A', 20).eob().out
		}
		for _, c := range []struct {
			name   string
			stream []byte
			accept bool
		}{
			{"distance at the start", stream(func(b *blockWriter) { b.match(3, n) }), true},
			{"distance before the start", stream(func(b *blockWriter) { b.match(3, n+1) }), false},
			{"length symbol 286", stream(func(b *blockWriter) { b.code(0xc0+286-280, 8).code(0, 5) }), false},
			{"distance symbol 30", stream(func(b *blockWriter) { b.code(257-256, 7).code(30, 5) }), false},
		} {
			if got := assertInflateAgrees(t, c.stream, n+3+2*258+20); got != c.accept {
				t.Errorf("%s after %d literals: accepted = %v, want %v", c.name, lits, got, c.accept)
			}
		}
	}
}
