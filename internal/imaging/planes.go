package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The coder of stored planes: each SJPG plane, each plane of an SJPR base
// scan and each SJPR refinement bit plane is coded on its own, byte-aligned,
// by pack.go's entropy stage with one symbol added, a run of the byte before:
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
// or H = 0 and the plane as it is, when coding would not shorten it. No run
// starts a plane or passes its end. A plane of n bytes takes 1 + n at most.

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

// canYield reports whether n bytes of coded planes can hold total bytes. A
// run's code takes a bit at least, so a byte yields at most 8·maxRun, and a
// header claiming more is refused before any buffer is sized from it.
func canYield(n, total int) bool { return uint64(total) <= 8*maxRun*uint64(n) }

// planeCodes is the code of up to three planes, one after another.
type planeCodes [3]planeCode

// plan fixes the codes of planes and returns their size.
func (c *planeCodes) plan(planes ...[]byte) (size int) {
	for i, p := range planes {
		size += c[i].plan(p)
	}
	return size
}

// put writes planes as plan fixed them to out, their size.
func (c *planeCodes) put(out []byte, planes ...[]byte) {
	for i, p := range planes {
		c[i].put(out[:c[i].size], p)
		out = out[c[i].size:]
	}
}

// planeCode is one plane's code as plan fixed it: code lengths by position in
// the header's order, the sizes of its two tables (h = 0: stored) and of the
// whole.
type planeCode struct {
	lens       [planeSyms + 1]uint8 // and the run table's last nibble
	h, r, size int
}

// plan fixes the code of plane and returns its size, which is exact: the
// tables and ⌈(Σ count × length + extra bits) / 8⌉, or 1 + len(plane).
func (c *planeCode) plan(plane []byte) int {
	var freq [256]int
	var byZ [planeSyms]int
	countBytes(plane, &freq)
	extra := 0
	for at, n := nextRun(plane, 0); n > 0; at, n = nextRun(plane, at+n) {
		sym, x, _ := lengthCode(n)
		freq[plane[at]] -= n
		byZ[256+sym]++
		extra += int(x)
	}
	lastLit, lastRun := 0, -1
	for z := range 256 {
		if byZ[z] = freq[zigzag(z)]; byZ[z] != 0 {
			lastLit = z
		}
	}
	for k, n := range byZ[256:] {
		if n != 0 {
			lastRun = k
		}
	}
	bits := codeLengths(byZ[:], maxCodeLen, c.lens[:planeSyms]) + extra
	c.h, c.r = lastLit/2+1, (lastRun+2)/2
	if c.size = 2 + c.h + c.r + (bits+7)/8; c.size > len(plane) {
		c.h, c.size = 0, 1+len(plane)
	}
	return c.size
}

// put writes plane as plan fixed it to out, its size.
func (c *planeCode) put(out, plane []byte) {
	if c.h == 0 {
		out[0] = 0
		copy(out[1:], plane)
		return
	}
	o := putLengths(out, c.lens[:2*c.h])
	o += putLengths(out[o:], c.lens[256:256+2*c.r])
	var enc [planeSyms]uint32
	canon(c.lens[:planeSyms], enc[:])
	putRuns(&enc, plane, out[o:])
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

// putRuns writes the codes of plane's literals and runs, enc's by symbol, to
// out, which is their length. It is a function of its own so that its loop's
// few values stay in registers.
func putRuns(enc *[planeSyms]uint32, plane, out []byte) {
	var acc uint64 // the low nb bits are not yet written
	nb, o := uint(0), 0
	for i := 0; i < len(plane); {
		at, n := nextRun(plane, i)
		for _, v := range plane[i:at] {
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
	for acc <<= 64 - nb; o < len(out); o++ {
		out[o] = byte(acc >> 56)
		acc <<= 8
	}
}

// inflateInto decodes the coded planes at the front of src into planes, at
// most three, in order, and refuses src unless they end where it does. On
// error the planes hold garbage.
func inflateInto(src []byte, planes ...[]byte) error {
	l := lane{data: src, n: len(planes)}
	copy(l.planes[:], planes)
	_, err := inflateLanes([]lane{l})
	return err
}

// A lane is one stream of coded planes, an SJPG payload or an SJPR scan,
// decoded into its planes in turn. Lanes decode in step, so that the lookups
// of one fill the time another waits on its own: each lookup waits on the
// one before it.
type lane struct {
	t       *[2 << maxCodeLen]uint16 // the lookup of the plane in hand
	data    []byte                   // the stream from the plane in hand's codes on
	dst     []byte                   // the plane in hand; nil once none is left
	planes  [3][]byte
	n, next int    // planes in all, and the index of the one after dst
	pair    uint64 // pairs when the lookup has its pair half, else 0
	pos     int    // the bits of data read
	out     int    // the bytes of dst written
}

// inflateLanes decodes the lanes in step, refusing each unless its planes
// end where its stream does, and returns the lane an error is in.
func inflateLanes(ls []lane) (int, error) {
	s := packPool.Get().(*packScratch)
	defer packPool.Put(s)
	for i := range ls {
		ls[i].t = (*[2 << maxCodeLen]uint16)(s.table[i<<(maxCodeLen+1):])
		if err := ls[i].open(len(ls) == 1); err != nil {
			return i, err
		}
	}
	for {
		i, busy := inStep(ls)
		if busy == 0 {
			break
		}
		if err := ls[i].finish(busy == 1); err != nil {
			return i, err
		}
	}
	for i := range ls {
		if len(ls[i].data) != 0 {
			return i, fmt.Errorf("%d bytes after the planes", len(ls[i].data))
		}
	}
	return 0, nil
}

// open takes up the lane's next plane. A stored plane it copies whole and goes
// on; a coded one it leaves in hand, its lookup built and its first bits
// loaded; with none left, dst is nil. A lane alone gets its lookup's pair half:
// lanes in step would crowd each other's lookups out of the cache with them.
func (l *lane) open(alone bool) error {
	for l.dst = nil; l.next < l.n; {
		plane, data := l.planes[l.next], l.data
		l.next++
		if len(data) == 0 {
			return fmt.Errorf("plane %d: no header", l.next-1)
		}
		if data[0] == 0 {
			if len(data)-1 < len(plane) {
				return fmt.Errorf("plane %d: stored plane cut short", l.next-1)
			}
			l.data = data[1+copy(plane, data[1:]):]
			continue
		}
		var lens [planeSyms + 1]uint8
		_, data, err := readLengths(data, lens[:256])
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
			return fmt.Errorf("plane %d: %v", l.next-1, err)
		}
		if l.pair = 0; alone {
			l.pair = pairs
			pairUp(l.t)
		}
		l.data, l.dst, l.pos, l.out = data, plane, 0, 0
		return nil
	}
	return nil
}

// The fast loop's margins: the one 8-byte load of a pass, and what a pass can
// write, two lookups of two literals and a run in whole 8-byte stores.
const (
	fastIn  = 8
	fastOut = 4 + (maxRun+7)&^7
	pairs   = 1 << maxCodeLen // where the pair half of a plane's lookup starts
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

// run makes up to passes passes of the fast loop over the plane in hand and
// reports whether it made them all, so that more may follow. It runs while
// fastIn bytes of data and fastOut of dst remain, and checks neither. Its
// refill leaves at least 56 counted bits; a pass uses at most 41 (two
// literals and a run, 12+12+12+5), so one refill a pass covers it and the
// next pass's first lookup, made before that pass refills, which keeps the
// load off the chain from one symbol to the next. It refuses nothing itself:
// at a run that would repeat nothing, or a pattern with no code, it stops
// with that symbol unread.
func (l *lane) run() {
	t, tp := (*[1 << maxCodeLen]uint16)(l.t[:]), (*[1 << maxCodeLen]uint16)(l.t[l.pair:])
	data, dst, at, out := l.data, l.dst, l.pos>>3+7, l.out
	if len(data)-at < 1 || len(dst)-out < fastOut {
		return
	}
	// The bits from pos on, those up to byte at counted.
	bb, nb := binary.BigEndian.Uint64(data[at-7:])<<(l.pos&7), 56-uint(l.pos&7)
	i := bb >> (64 - maxCodeLen)
	e, p := t[i], tp[i]
	for len(data)-at >= fastIn && len(dst)-out >= fastOut {
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
		bb <<= l + x
		nb -= l + x
		// Whole 8-byte stores may write up to seven bytes past the run, inside
		// fastOut, where the symbols that follow write over them.
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

// finish decodes the rest of the plane in hand with the careful loop and
// opens the next.
func (l *lane) finish(alone bool) error {
	used, ok := finishRuns(l.t, l.data, l.dst, l.pos, l.out)
	if !ok {
		return fmt.Errorf("plane %d: codes run past the payload or the plane, have no symbol, repeat nothing, or leave padding bits set", l.next-1)
	}
	l.data = l.data[used:]
	return l.open(alone)
}

// finishRuns is the careful loop: from where the fast loop left a plane, it
// decodes the rest of the codes at the front of data into dst and returns
// their length, the zero-padded last byte included. ok is false if the codes
// run past data or into a pattern with no code, if a run repeats nothing or
// passes the end of dst, or if a pad bit is set. Past the end of data the bits
// read are zeros; a code longer than the counted bits is a stream cut short.
// It is a function of its own so that its loop's few values stay in
// registers.
func finishRuns(t *[2 << maxCodeLen]uint16, data, dst []byte, pos, out int) (used int, ok bool) {
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
	pad := nb % 8 // whole bytes read ahead belong to what follows
	return at - int(nb/8), pad == 0 || bb>>(64-pad) == 0
}

// inStep runs the fast loop on the lanes with a plane in hand, busy of them,
// until it can take lane i's no further: a lane alone as far as it goes, two
// or more a pass each in turn. A pass of a lane in step loads 8 bytes at its
// bit position and takes up to four symbols from them, a run the last — 53
// bits at most — and keeps no bit buffer, only the position, which leaves the
// registers to the lookups. It stops, as run does, at what it must not take.
func inStep(ls []lane) (i, busy int) {
	for j := range ls {
		if ls[j].dst != nil {
			i, busy = j, busy+1
		}
	}
	if busy < 2 {
		if busy == 1 {
			ls[i].run()
		}
		return i, busy
	}
	for {
		for i := range ls {
			l := &ls[i]
			if l.dst == nil {
				continue
			}
			t, data, dst, pos, out := (*[1 << maxCodeLen]uint16)(l.t[:]), l.data, l.dst, l.pos, l.out
			if len(data)-pos>>3 < fastIn || len(dst)-out < fastOut {
				return i, busy
			}
			// At least 57 bits: four symbols' worth, a run the last.
			bb := binary.BigEndian.Uint64(data[pos>>3:]) << (pos & 7)
			for range 4 {
				e := t[bb>>(64-maxCodeLen)]
				if e&0xf0 == 0 {
					dst[out] = byte(e >> 8)
					out++
					pos += int(e & 15)
					bb <<= e & 63
					continue
				}
				x := uint(e>>4) & 7
				if x > 5 || out == 0 {
					l.pos, l.out = pos, out
					return i, busy
				}
				n := uint(e & 15)
				end := out + int(e>>8) + 3 + int(bb<<n>>(64-x))
				bb <<= n + x
				pos += int(n + x)
				v := uint64(dst[out-1]) * 0x0101010101010101
				for ; out < end; out += 8 {
					binary.LittleEndian.PutUint64(dst[out:], v)
				}
				out = end
				break // fastOut has room for one run a pass
			}
			l.pos, l.out = pos, out
		}
	}
}
