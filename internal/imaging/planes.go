package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The coder of stored planes: each plane of each scan (codec.go) is coded on
// its own, byte-aligned, by pack.go's entropy stage with one symbol added, a
// run of the byte before:
//
//	literals  1 byte H (1..128), then H bytes of code lengths 0..12, two a
//	          byte, high nibble first, for the byte values 0, −1, +1, −2, …
//	runs      1 byte R (0..15), then R bytes of code lengths for the run
//	          lengths' symbols, DEFLATE's 257…285 (RFC 1951, 3.2.5); the
//	          30th nibble is zero
//	codes     one canonical code over both tables, literals first, MSB
//	          first, zero-padded to a byte: a literal's code is its byte; a
//	          run's code and extra bits repeat the byte before it 3–258 times
//
// or H = 0 and the plane as it is, when coding would not shorten it. A plane
// of n bytes takes 1 + n at most. Its codes are those of its bands, one after
// another under the plane's one code, no run starting a band or passing its
// end.

const (
	minRun    = 4 // a run of three costs about what its three literals do
	maxRun    = 258
	runSyms   = 29 // the run lengths' symbols
	planeSyms = 256 + runSyms
)

// symEntry is the lookup entry of the symbol at each position of the
// header's order, its code length aside: a byte value v is v<<8, a run
// (base−3)<<8 | 0x80 | extra bits<<4. 0xff, no code, reads as a run with
// seven extra bits, which none has.
var symEntry = func() (t [planeSyms]uint16) {
	for z := range 256 {
		t[z] = uint16(zigzag(z)) << 8
	}
	for n := maxRun; n >= 3; n-- { // the last run written for a symbol is its base
		sym, extra, _ := lengthCode(n)
		t[256+sym] = uint16(n-3)<<8 | 0x80 | uint16(extra)<<4
	}
	return t
}()

// lengthCode returns how a run of n is sent: its symbol, counted from 257,
// and the number and value of its extra bits.
func lengthCode(n int) (sym int, extra, v uint) {
	if n == maxRun {
		return runSyms - 1, 0, 0
	}
	extra = uint(max(bits.Len(uint(n-3))-3, 0))
	return 4*int(extra) + (n-3)>>extra, extra, uint(n-3) & (1<<extra - 1)
}

// planeCode is one plane's code as plan fixed it: code lengths by position in
// the header's order, the sizes of its two tables (h = 0: stored) and of the
// whole.
type planeCode struct {
	lens       [planeSyms + 1]uint8 // and the run table's last nibble
	h, r, size int
}

// plan fixes the code of plane, cut into bands of band bytes, and returns its
// size, which is exact: the tables and ⌈(Σ count × length + extra bits) / 8⌉,
// or 1 + len(plane).
func (c *planeCode) plan(plane []byte, band int) int {
	var byZ [planeSyms]int
	extra := 0
	for lo := 0; lo < len(plane); lo += band {
		extra += tally(plane[lo:min(lo+band, len(plane))], &byZ)
	}
	lastLit, lastRun := 0, -1
	for z, n := range byZ {
		if n != 0 && z < 256 {
			lastLit = z
		} else if n != 0 {
			lastRun = z - 256
		}
	}
	bits := codeLengths(byZ[:], maxCodeLen, c.lens[:planeSyms]) + extra
	c.h, c.r = lastLit/2+1, (lastRun+2)/2
	if c.size = 2 + c.h + c.r + (bits+7)/8; c.size > len(plane) {
		c.h, c.size = 0, 1+len(plane)
	}
	return c.size
}

// tally adds the symbols band codes to, by position in the header's order,
// to byZ and returns their extra bits.
func tally(band []byte, byZ *[planeSyms]int) (extra int) {
	var lits [256]int
	countBytes(band, &lits)
	for at, n := nextRun(band, 0); n > 0; at, n = nextRun(band, at+n) {
		sym, x, _ := lengthCode(n)
		lits[band[at]] -= n
		byZ[256+sym]++
		extra += int(x)
	}
	for v, n := range lits {
		byZ[uint8(int8(v)<<1^int8(v)>>7)] += n // zigzag's inverse
	}
	return extra
}

// uvarintLen is the size of v as a uvarint.
func uvarintLen(v int) int { return (bits.Len(uint(v)|1) + 6) / 7 }

// put writes plane, cut into bands of band bytes, as plan fixed it to out, its
// size. Unless index is nil or the plane is stored, it appends the length in
// bits of each band's codes to index; it returns index.
func (c *planeCode) put(out, plane []byte, band int, index []byte) []byte {
	if c.h == 0 {
		out[0] = 0
		copy(out[1:], plane)
		return index
	}
	o := putLengths(out, c.lens[:2*c.h])
	o += putLengths(out[o:], c.lens[256:256+2*c.r])
	var enc [planeSyms]uint32
	canon(c.lens[:planeSyms], enc[:])
	return putRuns(&enc, plane, band, out[o:], index)
}

// countBytes adds the number of times each value occurs in b to h.
func countBytes(b []byte, h *[256]int) {
	var c [4][256]uint32 // four counters a value, so that equal neighbours do not wait on one
	for i, v := range b {
		c[i&3][v]++
	}
	for v := range h {
		h[v] += int(c[0][v]) + int(c[1][v]) + int(c[2][v]) + int(c[3][v])
	}
}

// nextRun returns the first position at ≥ max(i, 1) from which minRun or more
// bytes of plane repeat plane[at−1], and how many do, at most maxRun; else
// len(plane), 0. No run starts inside a shorter one, nor just after it.
func nextRun(plane []byte, i int) (at, n int) {
	// Eight pairs of neighbours a step: a byte of x is zero where a byte
	// repeats the one before, and z marks the first of four such in a row.
	for at = max(i, 1); at+8 <= len(plane); at += 5 {
		x := binary.LittleEndian.Uint64(plane[at:]) ^ binary.LittleEndian.Uint64(plane[at-1:])
		z := ^(x&0x7f7f7f7f7f7f7f7f + 0x7f7f7f7f7f7f7f7f | x) & 0x8080808080808080
		if z &= z >> 8 & (z >> 16) & (z >> 24); z != 0 {
			at += bits.TrailingZeros64(z) >> 3
			break
		}
	}
	for ; at+minRun <= len(plane); at += n + 1 {
		for n = 0; at+n < len(plane) && n < maxRun && plane[at+n] == plane[at-1]; n++ {
		}
		if n >= minRun {
			return at, n
		}
	}
	return len(plane), 0
}

// putRuns writes the codes of the literals and runs of plane's bands of band
// bytes, enc's by symbol, to out, which is their length, and appends each
// band's length in bits to index unless it is nil. It is a function of its own
// so that its loop's few values stay in registers.
func putRuns(enc *[planeSyms]uint32, plane []byte, band int, out, index []byte) []byte {
	var acc uint64 // the low nb bits are not yet written
	nb, o, start := uint(0), 0, 0
	for lo := 0; lo < len(plane); lo += band {
		b := plane[lo:min(lo+band, len(plane))]
		for i := 0; i < len(b); {
			at, n := nextRun(b, i)
			for _, v := range b[i:at] {
				e := enc[v]
				acc = acc<<(e&15) | uint64(e>>4)
				if nb += uint(e & 15); nb >= 32 {
					nb -= 32
					binary.BigEndian.PutUint32(out[o:], uint32(acc>>nb))
					o += 4
				}
			}
			if n > 0 {
				sym, extra, v := lengthCode(n)
				e := enc[256+sym]
				l := uint(e&15) + extra
				acc = acc<<l | uint64(e>>4)<<extra | uint64(v)
				if nb += l; nb >= 32 {
					nb -= 32
					binary.BigEndian.PutUint32(out[o:], uint32(acc>>nb))
					o += 4
				}
			}
			i = at + n
		}
		if index != nil {
			end := 8*o + int(nb)
			index, start = binary.AppendUvarint(index, uint64(end-start)), end
		}
	}
	for acc <<= 64 - nb; o < len(out); o++ {
		out[o] = byte(acc >> 56)
		acc <<= 8
	}
	return index
}

// A lane is the decoder of one coded plane: its lookup, with the pair half,
// its codes, and the band in hand.
type lane struct {
	t    *[2 << maxCodeLen]uint16
	data []byte // the plane's codes, after its tables
	dst  []byte // the band in hand
	pos  int    // the bits of data read
	out  int    // the bytes of dst written
}

// inflate is the band decoder: it decodes bands [b0, b1) of plane, cut into
// bands of band bytes, into dst, the whole plane, refusing each unless it ends
// where index — the bands' lengths in bits, which parse has checked — says the
// next starts (through the last, unless padding bits are set). A band start is
// a symbol start, so the fast loop runs to within a pass of each. Of each band
// above b0 it decodes only the first value, which the next band predicts from,
// if firsts, and else nothing. A stored plane it copies whole.
func inflate(t *[2 << maxCodeLen]uint16, plane, index, dst []byte, band, b0, b1 int, firsts bool) error {
	if plane[0] == 0 {
		copy(dst, plane[1:])
		return nil
	}
	l := lane{t: t}
	if err := l.open(plane); err != nil {
		return err
	}
	for b := 0; b < b1; b++ {
		bits, k := binary.Uvarint(index)
		index = index[k:]
		end, at := l.pos+int(bits), dst[b*band:min((b+1)*band, len(dst))]
		ok := true
		switch {
		case b >= b0:
			l.dst, l.out = at, 0
			l.run()
			var pos int
			if pos, ok = finishRuns(t, l.data, at, l.pos, l.out); ok && pos != end {
				return fmt.Errorf("band %d: codes end at bit %d, the index at %d", b, pos, end)
			}
		case firsts:
			_, ok = finishRuns(t, l.data, at[:1], l.pos, 0)
		}
		if !ok {
			return fmt.Errorf("band %d: codes run past the plane or the band, have no symbol, or repeat nothing", b)
		}
		l.pos = end
	}
	if len(index) == 0 && padded(l.data, l.pos) {
		return errors.New("padding bits set")
	}
	return nil
}

// open reads the tables at the front of plane, a coded one, builds its lookup
// and the lookup's pair half, and leaves its codes in hand.
func (l *lane) open(plane []byte) error {
	var lens [planeSyms + 1]uint8
	_, data, err := readLengths(plane, lens[:256])
	if err == nil {
		_, data, err = readLengths(data, lens[256:])
	}
	if err == nil && lens[planeSyms] != 0 {
		err = errors.New("a code length for no run symbol")
	}
	if err == nil {
		err = decodeTable(lens[:planeSyms], (*[1 << maxCodeLen]uint16)(l.t[:]))
	}
	if err != nil {
		return err
	}
	pairUp(l.t)
	l.data, l.pos = data, 0
	return nil
}

// The fast loop's margins: the one 8-byte load of a pass, and what a pass
// writes before its run.
const (
	fastIn = 8
	runOut = 8
	pairs  = 1 << maxCodeLen // where the pair half of a plane's lookup starts
)

// pairUp fills the pair half of t: at each index whose code is a literal,
// the literal the bits after it code, 0x40 and the two codes' length, where
// both fit in maxCodeLen bits; else the entry for the code alone. Code
// lengths rise along t, so pairs start no later than the first code too long
// to pair with the shortest.
func pairUp(t *[2 << maxCodeLen]uint16) {
	copy(t[pairs:], t[:pairs])
	most := maxCodeLen - t[0]&15
	for i, e := range t[:pairs] {
		if e&15 > most {
			break
		}
		e2, p := t[i<<(e&15)&(pairs-1)], e
		if l := e&15 + e2&15 + (e|e2)&0xf0; l <= maxCodeLen { // both literals
			p = e2&0xff00 | 0x40 | l
		}
		t[pairs+i] = p
	}
}

// run is the fast loop: it decodes the band in hand while fastIn bytes of
// data and runOut of dst remain, and checks neither; it takes a run only if
// the run's 8-byte stores end inside dst, so that it stops within a pass of
// the end of the band. Its refill leaves at least 56 counted bits; a pass uses at most 41 (two
// literals and a run, 12+12+12+5), so one refill a pass covers it and the
// next pass's first lookup, made before that pass refills, which keeps the
// load off the chain from one symbol to the next. It refuses nothing itself:
// at a run that would repeat nothing, or a pattern with no code, it stops
// with that symbol unread.
func (l *lane) run() {
	t, tp := (*[1 << maxCodeLen]uint16)(l.t[:]), (*[1 << maxCodeLen]uint16)(l.t[pairs:])
	data, dst, at, out := l.data, l.dst, l.pos>>3+7, l.out
	if len(data)-at < 1 || len(dst)-out < runOut {
		return
	}
	// The bits from pos on, those up to byte at counted.
	bb, nb := binary.BigEndian.Uint64(data[at-7:])<<(l.pos&7), 56-uint(l.pos&7)
	i := bb >> (64 - maxCodeLen)
	e, p := t[i], tp[i]
	for len(data)-at >= fastIn && len(dst)-out >= runOut {
		bb |= binary.BigEndian.Uint64(data[at:]) >> (nb & 63)
		at += int(63-nb) >> 3
		nb |= 56
		// Three lookups a refill, each of a literal and, where p is not
		// zero, the literal after it.
		k := 0
		for ; k < 3 && e&0xf0 == 0; k++ {
			w := dst[out:]
			w[0], w[1] = byte(e>>8), byte(p>>8)
			out += 1 + int(p>>6&1)
			bb <<= p & 63
			nb -= uint(p & 63)
			i = bb >> (64 - maxCodeLen)
			e, p = t[i], tp[i]
		}
		if k == 3 {
			continue
		}
		x := uint(e>>4) & 7
		if x > 5 || out == 0 {
			break
		}
		l := uint(e & 15)
		end := out + int(e>>8) + 3 + int(bb<<l>>(64-x))
		if end > len(dst)-7 {
			break
		}
		bb <<= l + x
		nb -= l + x
		// Whole 8-byte stores may write up to seven bytes past the run, inside
		// dst, where the symbols that follow write over them.
		v := uint64(dst[out-1]) * 0x0101010101010101
		for ; out < end; out += 8 {
			binary.LittleEndian.PutUint64(dst[out:], v)
		}
		out = end
		i = bb >> (64 - maxCodeLen)
		e, p = t[i], tp[i]
	}
	l.pos, l.out = 8*at-int(nb), out
}

// padded reports whether a bit of data's byte that bit pos falls in is set at
// or after it.
func padded(data []byte, pos int) bool { return pos&7 != 0 && data[pos>>3]<<(pos&7) != 0 }

// finishRuns is the careful loop: from where the fast loop left a plane, it
// decodes the rest of the codes at the front of data into dst and returns the
// bit after them. ok is false if the codes run past data or into a pattern
// with no code, or if a run repeats nothing or passes the end of dst. Past the
// end of data the bits read are zeros; a code longer than the counted bits is
// a stream cut short. It is a function of its own so that its loop's few
// values stay in registers.
func finishRuns(t *[2 << maxCodeLen]uint16, data, dst []byte, pos, out int) (end int, ok bool) {
	var bb uint64 // the next bits of data from bit 63 down, nb of them counted
	nb, at := uint(0), pos>>3
	for ; nb <= 56 && at < len(data); nb += 8 {
		bb |= uint64(data[at]) << (56 - nb)
		at++
	}
	bb, nb = bb<<(pos&7), nb-uint(pos&7)
	for out < len(dst) {
		if nb < 32 {
			if len(data)-at >= 8 {
				bb |= binary.BigEndian.Uint64(data[at:]) >> (nb & 63)
				at += int(63-nb) >> 3
				nb |= 56
			} else {
				for ; nb <= 56 && at < len(data); nb += 8 {
					bb |= uint64(data[at]) << (56 - nb)
					at++
				}
			}
		}
		e := t[bb>>(64-maxCodeLen)]
		l := uint(e & 15)
		if e&0xf0 == 0 {
			if l > nb {
				return 0, false
			}
			dst[out] = byte(e >> 8)
			out++
			bb <<= l
			nb -= l
			continue
		}
		x := uint(e>>4) & 7
		n := int(e>>8) + 3 + int(bb<<l>>(64-x))
		if x > 5 || l+x > nb || out == 0 || n > len(dst)-out {
			return 0, false
		}
		bb <<= l + x
		nb -= l + x
		run, v := dst[out:out+n], dst[out-1]
		for i := range run {
			run[i] = v
		}
		out += n
	}
	return 8*at - int(nb), true
}
