package imaging

import (
	"bytes"
	"compress/flate"
	"math/bits"
	"math/rand/v2"
	"testing"

	"repro/internal/raceflag"
)

// assertInflateAgrees holds inflateInto to compress/flate's reader: the same
// verdict on data as an n-byte stream, and on acceptance the same bytes. It
// returns the shared verdict.
func assertInflateAgrees(t *testing.T, data []byte, n int) (accepted bool) {
	t.Helper()
	want, got := make([]byte, n), make([]byte, n)
	refErr := refInflate(data, want)
	err := inflateInto(data, got)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("verdicts differ on %x as %d bytes: compress/flate says %v, inflateInto says %v", data, n, refErr, err)
	}
	if err != nil {
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("outputs differ on %x as %d bytes", data, n)
	}
	return true
}

func deflate(t testing.TB, level int, plain []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// residuals is n bytes shaped like a delta-coded plane: mostly small values
// around zero with runs, so DEFLATE emits literals, short and long matches.
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

// inflateCase is a DEFLATE stream and the bytes it holds.
type inflateCase struct {
	name   string
	plain  []byte
	stream []byte
}

// inflateCorpus is one stream of each kind over about n plain bytes: stored,
// fixed, dynamic, dynamic with codes longer than the primary table is wide,
// and compress/flate's literal-only HuffmanOnly.
func inflateCorpus(t testing.TB, n int) []inflateCase {
	t.Helper()
	text := residuals(1, n)
	// Geometrically distributed literals: the rare ones get 11..15-bit codes.
	skewed := make([]byte, n)
	rng := rand.New(rand.NewPCG(2, 2))
	for i := range skewed {
		skewed[i] = byte(bits.TrailingZeros32(rng.Uint32() | 1<<24))
	}
	corpus := []inflateCase{
		{"stored", text[:n/8], deflate(t, flate.NoCompression, text[:n/8])},
		{"fixed", []byte("fixed fixed fixed"), deflate(t, flate.DefaultCompression, []byte("fixed fixed fixed"))},
		{"dynamic", text, deflate(t, flate.DefaultCompression, text)},
		{"long codes", skewed, deflate(t, flate.BestCompression, skewed)},
		{"huffman only", text[:n/4], deflate(t, flate.HuffmanOnly, text[:n/4])},
	}
	for i, typ := range []byte{0, 1, 2, 2, 2} {
		if got := corpus[i].stream[0] >> 1 & 3; got != typ {
			t.Fatalf("%s stream opens with a block of type %d, want %d", corpus[i].name, got, typ)
		}
	}
	return corpus
}

// damaged returns stream cut at every byte of its first 40 (the block header
// and, for a dynamic block, most of its code-length table) and just short of
// its end, and with each of the first 96 header bits flipped.
func damaged(stream []byte) [][]byte {
	var out [][]byte
	for cut := 0; cut < len(stream) && cut < 40; cut++ {
		out = append(out, stream[:cut])
	}
	out = append(out, stream[:len(stream)-1])
	for bit := 0; bit < 96 && bit/8 < len(stream); bit++ {
		c := bytes.Clone(stream)
		c[bit/8] ^= 1 << (bit % 8)
		out = append(out, c)
	}
	return out
}

func TestInflateRoundTrip(t *testing.T) {
	for _, c := range inflateCorpus(t, 70_000) {
		d := new(inflater) // not pooled, to see which tables this stream needed
		got := make([]byte, len(c.plain))
		if err := d.inflate(c.stream, got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.plain) {
			t.Fatalf("%s: inflates to the wrong bytes", c.name)
		}
		if c.name == "long codes" && len(d.lit.sub) == 0 {
			t.Errorf("%s: no code outgrew the %d-bit primary table", c.name, tableBits)
		}
		// The size is part of the contract: one byte either way is an error,
		// as is an empty destination.
		for _, n := range []int{0, len(c.plain) - 1, len(c.plain) + 1} {
			if assertInflateAgrees(t, c.stream, n) {
				t.Fatalf("%s: accepted as %d bytes, holds %d", c.name, n, len(c.plain))
			}
		}
		// Bytes after the final block are not the decoder's business.
		if !assertInflateAgrees(t, append(bytes.Clone(c.stream), 0xff, 0x00), len(c.plain)) {
			t.Fatalf("%s: rejected when followed by other bytes", c.name)
		}
	}
}

// TestHuffTableLongCodes builds the most lopsided complete code (lengths
// 1, 2, …, 15, 15) and looks every symbol up through the overflow tables.
func TestHuffTableLongCodes(t *testing.T) {
	lens := make([]uint8, 16)
	for i := range lens {
		lens[i] = uint8(min(i+1, maxCode))
	}
	var tab huffTable
	if !tab.build(lens, precodeSyms[:len(lens)]) {
		t.Fatal("complete code rejected")
	}
	for sym, n := range lens {
		// Canonical: symbol i is i ones then a zero, the last is all ones.
		code := uint(1<<n-1) &^ 1
		if sym == len(lens)-1 {
			code |= 1
		}
		stream := new(bitWriter).code(code, uint(n)).bits(0x5a5a, 16).out
		e := tab.lookup(uint64(stream[0]) | uint64(stream[1])<<8 | uint64(stream[2])<<16)
		if int(e>>16) != sym || uint8(e&15) != n || e&entBad != 0 {
			t.Errorf("symbol %d (%d bits) looked up as entry %#x", sym, n, e)
		}
	}
	lens[15] = 14
	if tab.build(lens, precodeSyms[:len(lens)]) {
		t.Error("over-subscribed code accepted")
	}
	lens[15] = 0
	if tab.build(lens, precodeSyms[:len(lens)]) {
		t.Error("incomplete code accepted")
	}
}

// TestInflateMatchesFlateOnDamage: truncated and bit-flipped headers, then
// random mutations anywhere, must get compress/flate's verdict.
func TestInflateMatchesFlateOnDamage(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 40
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for _, c := range inflateCorpus(t, 20_000) {
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
	// Small random plain texts at every level, each with mutations.
	for i := 0; i < rounds; i++ {
		plain := residuals(uint64(i), 1+rng.IntN(3000))
		level := []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.HuffmanOnly}[i%4]
		stream := deflate(t, level, plain)
		if !assertInflateAgrees(t, stream, len(plain)) {
			t.Fatalf("level %d stream rejected", level)
		}
		for m := 0; m < 20; m++ {
			c := bytes.Clone(stream)
			c[rng.IntN(len(c))] ^= 1 << rng.IntN(8)
			assertInflateAgrees(t, c, len(plain))
		}
	}
}

// bitWriter assembles DEFLATE streams by hand for the rejection table.
type bitWriter struct {
	out []byte
	n   uint // bits used in the last byte
}

// bits appends the low n bits of v, least significant first.
func (w *bitWriter) bits(v, n uint) *bitWriter {
	for i := uint(0); i < n; i++ {
		if w.n%8 == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
	return w
}

// code appends an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(v, n uint) *bitWriter {
	return w.bits(uint(bits.Reverse16(uint16(v))>>(16-n)), n)
}

func (w *bitWriter) align() *bitWriter {
	w.n = (w.n + 7) &^ 7
	return w
}

func (w *bitWriter) bytes(b ...byte) *bitWriter {
	w.out = append(w.out, b...)
	w.n += 8 * uint(len(b))
	return w
}

// final starts a final block of the given type.
func final(typ uint) *bitWriter { return new(bitWriter).bits(1, 1).bits(typ, 2) }

// dynamicHeader starts a final dynamic block declaring nlit and ndist codes
// and the given code-length code (symbol → length, all 19 slots written).
func dynamicHeader(nlit, ndist uint, precode map[uint]uint) *bitWriter {
	w := final(2).bits(nlit-257, 5).bits(ndist-1, 5).bits(numPrecode-4, 4)
	for _, sym := range precodeOrder {
		w.bits(precode[uint(sym)], 3)
	}
	return w
}

// inflateRejection is one hand-built stream: whether it inflates to exactly n
// bytes.
type inflateRejection struct {
	name   string
	stream []byte
	n      int
	accept bool
}

// inflateRejections lists the streams compress/flate refuses, each beside an
// accepted neighbour.
func inflateRejections() []inflateRejection {
	// Fixed-code helpers: literal 'a' is 8 bits 0x30+'a'; symbols 256..279
	// are 7 bits; 280..287 are 8 bits from 0xc0.
	litA := func(w *bitWriter) *bitWriter { return w.code(0x30+'a', 8) }
	// A dynamic block whose literal/length code is {257: "0", 'a': "10",
	// 256: "11"} and whose distance code is the lone 1-bit code for
	// distance 1, written with a code-length code of four 2-bit symbols
	// {0: "00", 1: "01", 2: "10", 18: "11"}.
	lone := func() *bitWriter {
		w := dynamicHeader(258, 1, map[uint]uint{0: 2, 1: 2, 2: 2, 18: 2})
		zeros := func(n uint) { w.code(3, 2).bits(n-11, 7) }
		zeros(97)    // 0..96
		w.code(2, 2) // 'a': 2 bits
		zeros(138)   // 98..235
		zeros(20)    // 236..255
		w.code(2, 2) // 256: 2 bits
		w.code(1, 2) // 257: 1 bit
		w.code(1, 2) // distance 0: 1 bit
		return w
	}

	// A dynamic block whose only literal/length code is the end-of-block
	// symbol's, eobLen (1 or 2) bits long, and whose distance code is empty;
	// the code-length code is {18: "0", 0: "10", eobLen: "11"}.
	onlyEOB := func(eobLen uint) *bitWriter {
		w := dynamicHeader(257, 1, map[uint]uint{18: 1, 0: 2, eobLen: 2})
		w.code(0, 1).bits(138-11, 7).code(0, 1).bits(118-11, 7) // 0..255
		return w.code(3, 2).code(2, 2)                          // 256, then distance 0
	}

	return []inflateRejection{
		{"stored", final(0).align().bytes(2, 0, 0xfd, 0xff, 'h', 'i').out, 2, true},
		{"empty stored blocks after the data",
			new(bitWriter).bits(0, 3).align().bytes(1, 0, 0xfe, 0xff, 'x').
				bits(0, 3).align().bytes(0, 0, 0xff, 0xff).
				bits(1, 3).align().bytes(0, 0, 0xff, 0xff).out, 1, true},
		{"no final block", new(bitWriter).bits(0, 3).align().bytes(1, 0, 0xfe, 0xff, 'x').out, 1, false},
		{"reserved block type", final(3).bits(0, 13).out, 0, false},
		{"stored LEN/NLEN mismatch", final(0).align().bytes(2, 0, 0xfd, 0xfe, 'h', 'i').out, 2, false},
		{"stored block cut short", final(0).align().bytes(5, 0, 0xfa, 0xff, 'h', 'i').out, 5, false},
		{"stored block overflows", final(0).align().bytes(2, 0, 0xfd, 0xff, 'h', 'i').out, 1, false},

		{"fixed literal", litA(final(1)).code(0, 7).out, 1, true},
		{"fixed length 258 at distance 1", litA(final(1)).code(0xc0+285-280, 8).code(0, 5).code(0, 7).out, 259, true},
		{"fixed end-of-block cut short", litA(final(1)).bits(0, 5).out, 1, false},
		{"length symbol 286", litA(final(1)).code(0xc0+286-280, 8).code(0, 5).code(0, 7).out, 4, false},
		{"length symbol 287", litA(final(1)).code(0xc0+287-280, 8).code(0, 5).code(0, 7).out, 4, false},
		{"distance symbol 30", litA(final(1)).code(257-256, 7).code(30, 5).code(0, 7).out, 4, false},
		{"distance symbol 31", litA(final(1)).code(257-256, 7).code(31, 5).code(0, 7).out, 4, false},
		{"distance before the start", litA(final(1)).code(257-256, 7).code(1, 5).code(0, 7).out, 4, false},
		{"match overflows", litA(final(1)).code(258-256, 7).code(0, 5).code(0, 7).out, 4, false},
		{"match at distance 1", litA(final(1)).code(257-256, 7).code(0, 5).code(0, 7).out, 4, true},

		{"HLIT 287", dynamicHeader(287, 1, map[uint]uint{0: 1, 1: 1}).bits(0, 64).out, 1, false},
		{"HDIST 31", dynamicHeader(257, 31, map[uint]uint{0: 1, 1: 1}).bits(0, 64).out, 1, false},
		{"code-length code over-subscribed", dynamicHeader(257, 1, map[uint]uint{0: 1, 1: 1, 2: 1}).bits(0, 64).out, 1, false},
		{"code-length code incomplete", dynamicHeader(257, 1, map[uint]uint{0: 2, 1: 2}).bits(0, 64).out, 1, false},
		{"code-length code empty", dynamicHeader(257, 1, nil).bits(0, 64).out, 1, false},
		{"repeat with nothing to repeat", dynamicHeader(257, 1, map[uint]uint{0: 1, 16: 1}).code(1, 1).bits(0, 64).out, 1, false},
		{"repeat past HLIT+HDIST", dynamicHeader(257, 1, map[uint]uint{0: 1, 18: 1}).
			code(1, 1).bits(127, 7).code(1, 1).bits(127, 7).bits(0, 64).out, 1, false},
		{"literal/length code empty", dynamicHeader(257, 1, map[uint]uint{0: 1, 18: 1}).
			code(1, 1).bits(127, 7).code(1, 1).bits(120-11, 7).bits(0, 64).out, 1, false},
		{"literal/length code incomplete", onlyEOB(2).bits(0, 64).out, 0, false},
		{"lone end-of-block code", onlyEOB(1).code(0, 1).out, 0, true},
		{"lone end-of-block code, the other bit", onlyEOB(1).code(1, 1).bits(0, 64).out, 0, false},

		{"lone distance code", lone().code(2, 2).code(0, 1).code(0, 1).code(3, 2).out, 4, true},
		{"lone distance code, the other bit", lone().code(2, 2).code(0, 1).code(1, 1).code(3, 2).out, 4, false},
		{"dynamic block cut short", lone().code(2, 2).code(0, 1).out, 4, false},
	}
}

// TestInflateRejections: each refused stream must be refused here too, and
// its accepted neighbour accepted.
func TestInflateRejections(t *testing.T) {
	for _, c := range inflateRejections() {
		if got := assertInflateAgrees(t, c.stream, c.n); got != c.accept {
			t.Errorf("%s: accepted = %v, want %v", c.name, got, c.accept)
		}
	}
}

// TestInflateIntoDoesNotAllocate: tables and overflow slices are pooled.
func TestInflateIntoDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching")
	}
	for _, c := range inflateCorpus(t, 20_000) {
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

// FuzzInflate: inflateInto and compress/flate's reader agree on whether data
// is an n-byte DEFLATE stream and, when it is, on the bytes.
func FuzzInflate(f *testing.F) {
	for _, c := range inflateCorpus(f, 8_000) {
		f.Add(c.stream, len(c.plain))
		for _, d := range damaged(c.stream) {
			f.Add(d, len(c.plain))
		}
	}
	for _, c := range handoverStreams() {
		f.Add(c.stream, c.n)
	}
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<20 {
			return
		}
		assertInflateAgrees(t, data, n)
	})
}
