package imaging

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// The codec's DEFLATE decoder. SJPG/SJPR payloads are raw DEFLATE streams
// (RFC 1951) whose decompressed size is known exactly from the header, so the
// decoder reads the payload slice directly and writes straight into the
// exact-size plane buffer: the output is its own 32 KiB window, there is no
// io.Reader per symbol and no dictionary copy. It accepts and rejects exactly
// the streams compress/flate's reader does (FuzzInflate holds the two
// together). It reads what either writer stores: SJPG streams from
// deflate.go's (literals and distance-1 runs, a block a plane) and SJPR scans
// from compress/flate's.

// Rejections. Callers wrap them in ErrCorrupt.
var (
	errInflateTruncated = errors.New("inflate: input ends inside the stream")
	errInflateBlockType = errors.New("inflate: reserved block type")
	errInflateStoredLen = errors.New("inflate: stored block length check failed")
	errInflateCodeSet   = errors.New("inflate: over-subscribed or incomplete code set")
	errInflateRepeat    = errors.New("inflate: bad code-length repeat")
	errInflateCounts    = errors.New("inflate: too many length or distance codes")
	errInflateSymbol    = errors.New("inflate: invalid length or distance symbol")
	errInflateDistance  = errors.New("inflate: distance reaches before the start of the output")
	errInflateLong      = errors.New("inflate: stream yields more than the expected size")
	errInflateShort     = errors.New("inflate: stream yields less than the expected size")
)

// A table entry packs one decoded symbol:
//
//	bits 0..3    code length in bits (for a link: unused)
//	bits 4..7    number of extra bits that follow the code
//	bits 8..11   entLit / entEOB / entLink / entBad
//	bits 16..31  literal byte, length or distance base, code-length symbol,
//	             or (entLink) the offset of the overflow table
const (
	tableBits = 10 // primary lookup width; longer codes go through overflow tables
	tableMask = 1<<tableBits - 1
	maxCode   = 15 // longest DEFLATE code

	entLit  = 1 << 8
	entEOB  = 1 << 9
	entLink = 1 << 10
	entBad  = 1 << 11 // no code reaches this slot, or the symbol is reserved (286, 287, 30, 31)

	numLitLen  = 288 // the fixed code assigns lengths to 286 and 287 too
	numDist    = 32  // likewise 30 and 31
	maxHLit    = 286
	maxHDist   = 30
	numPrecode = 19
)

// huffTable decodes one canonical Huffman code, indexed by the next stream
// bits (DEFLATE packs codes most-significant-bit first into a
// least-significant-bit-first stream, so the index is the reversed code).
// Codes longer than tableBits share equal-sized overflow tables in sub, as in
// compress/flate, but sub is one reused slice instead of a slice per prefix.
type huffTable struct {
	primary [1 << tableBits]uint32
	sub     []uint32
	subMask uint32
}

// lookup returns the entry for the code at the bottom of bb.
func (t *huffTable) lookup(bb uint64) uint32 {
	e := t.primary[bb&tableMask]
	if e&entLink != 0 {
		e = t.sub[e>>16+uint32(bb>>tableBits)&t.subMask]
	}
	return e
}

// build fills the table from per-symbol code lengths; syms[i] is symbol i's
// entry without its length. It reports false for a code set compress/flate
// rejects: anything but a complete code, a single 1-bit code, or no code at
// all. Slots no code reaches decode as entBad.
func (t *huffTable) build(lens []uint8, syms []uint32) bool {
	var count [maxCode + 1]int
	for _, n := range lens {
		count[n]++
	}
	max := maxCode
	for max > 0 && count[max] == 0 {
		max--
	}
	var next [maxCode + 1]int // first code of each length
	code := 0
	for n := 1; n <= max; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if max == 0 || code != 1<<max {
		if max > 1 || code > 1 {
			return false
		}
		for i := range t.primary {
			t.primary[i] = entBad
		}
	}

	if max > tableBits {
		// Canonical codes grow with length, so every tableBits-bit prefix
		// from link up belongs to the long codes.
		subBits := max - tableBits
		link := next[tableBits+1] >> 1
		need := (1<<tableBits - link) << subBits
		if cap(t.sub) < need {
			t.sub = make([]uint32, need)
		}
		t.sub = t.sub[:need]
		t.subMask = 1<<subBits - 1
		for j := link; j < 1<<tableBits; j++ {
			rev := bits.Reverse16(uint16(j)) >> (16 - tableBits)
			t.primary[rev] = entLink | uint32((j-link)<<subBits)<<16
		}
	}

	for sym, n := range lens {
		if n == 0 {
			continue
		}
		rev := int(bits.Reverse16(uint16(next[n])) >> (16 - n))
		next[n]++
		e := syms[sym] | uint32(n)
		if n <= tableBits {
			for i := rev; i < 1<<tableBits; i += 1 << n {
				t.primary[i] = e
			}
			continue
		}
		sub := t.sub[t.primary[rev&tableMask]>>16:]
		for i := rev >> tableBits; i <= int(t.subMask); i += 1 << (n - tableBits) {
			sub[i] = e
		}
	}
	return true
}

// Symbol entries (without code lengths) for the three alphabets, and the
// code lengths of the fixed block type.
var (
	litLenSyms  [numLitLen]uint32
	distSyms    [numDist]uint32
	precodeSyms [numPrecode]uint32

	fixedLitLens  [numLitLen]uint8
	fixedDistLens [numDist]uint8

	// precodeOrder is the order code-length code lengths are stored in.
	precodeOrder = [numPrecode]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func init() {
	for s := range litLenSyms {
		switch {
		case s < 256:
			litLenSyms[s] = entLit | uint32(s)<<16
		case s == 256:
			litLenSyms[s] = entEOB
		case s < 265:
			litLenSyms[s] = uint32(s-257+3) << 16
		case s < 285:
			extra := (s - 261) >> 2
			base := 3 + (4+(s-265)&3)<<extra
			litLenSyms[s] = uint32(base)<<16 | uint32(extra)<<4
		case s == 285:
			litLenSyms[s] = 258 << 16
		default:
			litLenSyms[s] = entBad
		}
	}
	for s := range distSyms {
		switch {
		case s < 4:
			distSyms[s] = uint32(s+1) << 16
		case s < maxHDist:
			extra := (s - 2) >> 1
			base := 1 + (2+s&1)<<extra
			distSyms[s] = uint32(base)<<16 | uint32(extra)<<4
		default:
			distSyms[s] = entBad
		}
	}
	for s := range precodeSyms {
		precodeSyms[s] = uint32(s) << 16
	}

	for s := range fixedLitLens {
		switch {
		case s < 144:
			fixedLitLens[s] = 8
		case s < 256:
			fixedLitLens[s] = 9
		case s < 280:
			fixedLitLens[s] = 7
		default:
			fixedLitLens[s] = 8
		}
	}
	for s := range fixedDistLens {
		fixedDistLens[s] = 5
	}
}

// inflater is the per-call decoder state. All of it is pooled: the three
// tables are rebuilt per block, the overflow slices keep their capacity.
type inflater struct {
	src []byte
	pos int    // next unread byte of src
	bb  uint64 // bit buffer, next bit at bit 0; bits at nb and above are zero or repeat src[pos:]
	nb  int    // valid bits in bb; negative once a read has run past the input

	dst []byte
	out int

	lit, dist, pre huffTable
	lens           [maxHLit + maxHDist]uint8
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// inflateInto decompresses the raw DEFLATE stream src into dst, which must
// come out exactly full. Bytes after the final block are not an error, as
// they are not to compress/flate's reader. On error dst holds garbage.
func inflateInto(src, dst []byte) error {
	d := inflaterPool.Get().(*inflater)
	err := d.inflate(src, dst)
	d.src, d.dst = nil, nil // a pooled inflater must not pin the caller's buffers
	inflaterPool.Put(d)
	return err
}

func (d *inflater) inflate(src, dst []byte) error {
	d.src, d.pos, d.bb, d.nb = src, 0, 0, 0
	d.dst, d.out = dst, 0
	for {
		if !d.need(3) {
			return errInflateTruncated
		}
		hdr := d.take(3)
		var err error
		switch hdr >> 1 {
		case 0:
			err = d.storedBlock()
		case 1:
			d.lit.build(fixedLitLens[:], litLenSyms[:])
			d.dist.build(fixedDistLens[:], distSyms[:])
			err = d.huffmanBlock()
		case 2:
			if err = d.readCodes(); err == nil {
				err = d.huffmanBlock()
			}
		default:
			err = errInflateBlockType
		}
		if err != nil {
			return err
		}
		if hdr&1 != 0 {
			break
		}
	}
	if d.out != len(d.dst) {
		return errInflateShort
	}
	return nil
}

// need tops the bit buffer up and reports whether it holds n bits (n <= 57).
func (d *inflater) need(n int) bool {
	for d.nb <= 56 && d.pos < len(d.src) {
		d.bb |= uint64(d.src[d.pos]) << uint(d.nb)
		d.pos++
		d.nb += 8
	}
	return d.nb >= n
}

// take consumes n bits that need has confirmed.
func (d *inflater) take(n int) uint32 {
	v := uint32(d.bb) & (1<<uint(n) - 1)
	d.bb >>= uint(n)
	d.nb -= n
	return v
}

func (d *inflater) storedBlock() error {
	// Drop the rest of the current byte and hand the buffered whole bytes
	// back to src.
	d.pos -= d.nb >> 3
	d.bb, d.nb = 0, 0
	if len(d.src)-d.pos < 4 {
		return errInflateTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.src[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.src[d.pos+2:]) {
		return errInflateStoredLen
	}
	d.pos += 4
	if n > len(d.src)-d.pos {
		return errInflateTruncated
	}
	if n > len(d.dst)-d.out {
		return errInflateLong
	}
	copy(d.dst[d.out:], d.src[d.pos:d.pos+n])
	d.pos += n
	d.out += n
	return nil
}

// readCodes parses a dynamic block's header into d.lit and d.dist.
func (d *inflater) readCodes() error {
	if !d.need(14) {
		return errInflateTruncated
	}
	nlit := int(d.take(5)) + 257
	ndist := int(d.take(5)) + 1
	nclen := int(d.take(4)) + 4
	if nlit > maxHLit || ndist > maxHDist {
		return errInflateCounts
	}
	var preLens [numPrecode]uint8
	for i := 0; i < nclen; i++ {
		if !d.need(3) {
			return errInflateTruncated
		}
		preLens[precodeOrder[i]] = uint8(d.take(3))
	}
	if !d.pre.build(preLens[:], precodeSyms[:]) {
		return errInflateCodeSet
	}

	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.need(maxCode)
		e := d.pre.lookup(d.bb)
		if e&entBad != 0 {
			return errInflateCodeSet
		}
		n := int(e & 15)
		if n > d.nb {
			return errInflateTruncated
		}
		d.take(n)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var v uint8
		var rep, xb int
		switch sym {
		case 16:
			if i == 0 {
				return errInflateRepeat
			}
			v, rep, xb = lens[i-1], 3, 2
		case 17:
			rep, xb = 3, 3
		default:
			rep, xb = 11, 7
		}
		if !d.need(xb) {
			return errInflateTruncated
		}
		rep += int(d.take(xb))
		if rep > len(lens)-i {
			return errInflateRepeat
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	if !d.lit.build(lens[:nlit], litLenSyms[:]) || !d.dist.build(lens[nlit:], distSyms[:]) {
		return errInflateCodeSet
	}
	return nil
}

// The fast loop's margins. Sixteen input bytes cover its two 8-byte refills
// (each advances pos by at most seven); the output margin covers what one
// pass can write: up to three literals, the longest match, and the overshoot
// of that match's last 8-byte store.
const (
	fastIn  = 16
	fastOut = 258 + 8 + 3
)

// huffmanBlock decodes symbols with d.lit and d.dist up to the end-of-block
// code, in two loops over the same tables.
//
// The fast loop runs while fastIn input bytes and fastOut output bytes
// remain, so nothing in it can run past either buffer and it checks neither:
// a refill leaves at least 56 counted bits, three literals use at most 45 and
// a length/distance pair 48 (15+5+15+13). A refill loads 64 bits, counted or
// not, so after either at least 16 are left: each pass looks its first
// symbol up in those before it refills, which keeps the refill's load off
// the chain from one symbol to the next. It accepts nothing on its own: at
// an end-of-block code, a reserved symbol or a distance reaching before the
// output it stops with that symbol unread.
//
// The careful loop finishes every block and makes every rejection. One refill
// covers a whole pair there too, so reads past the end of the input are
// checked once per symbol through the sign of nb: the phantom bits are zeros,
// and whatever they decode to is rejected before it is used for anything but
// bounds-checked writes to dst.
func (d *inflater) huffmanBlock() error {
	src, dst := d.src, d.dst
	pos, bb, nb, out := d.pos, d.bb, d.nb, d.out
	lit, dist := &d.lit, &d.dist

	if len(src)-pos >= fastIn {
		bb |= binary.LittleEndian.Uint64(src[pos:]) << (uint(nb) & 63)
		pos += (63 - nb) >> 3
		nb |= 56
	}
	for len(src)-pos >= fastIn && len(dst)-out >= fastOut {
		e := lit.lookup(bb)
		bb |= binary.LittleEndian.Uint64(src[pos:]) << (uint(nb) & 63)
		pos += (63 - nb) >> 3
		nb |= 56

		// A literal has no extra bits, so the low six bits of its entry are
		// its code length: the shift needs no mask of its own.
		w := dst[out : out+fastOut]
		if e&entLit != 0 {
			w[0] = byte(e >> 16)
			out++
			bb >>= e & 63
			nb -= int(e & 63)
			if e = lit.lookup(bb); e&entLit != 0 {
				w[1] = byte(e >> 16)
				out++
				bb >>= e & 63
				nb -= int(e & 63)
				if e = lit.lookup(bb); e&entLit != 0 {
					w[2] = byte(e >> 16)
					out++
					bb >>= e & 63
					nb -= int(e & 63)
					continue
				}
			}
			// The entry in hand stays good: a refill only adds bits above nb.
			bb |= binary.LittleEndian.Uint64(src[pos:]) << (uint(nb) & 63)
			pos += (63 - nb) >> 3
			nb |= 56
		}
		if e&(entEOB|entBad) != 0 {
			break
		}
		// A length/distance pair, read from a copy of the buffer so that a
		// pair the careful loop must refuse is still unread.
		n := uint(e & 15)
		b, used := bb>>n, n
		n = uint(e>>4) & 15
		length := int(e>>16) + int(uint32(b)&(1<<n-1))
		b, used = b>>n, used+n
		e = dist.lookup(b)
		n = uint(e & 15)
		b, used = b>>n, used+n
		n = uint(e>>4) & 15
		back := int(e>>16) + int(uint32(b)&(1<<n-1))
		b, used = b>>n, used+n
		if e&entBad != 0 || back > out {
			break
		}
		bb, nb = b, nb-int(used)

		// Whole 8-byte stores may run up to seven bytes past the match, inside
		// fastOut: later symbols overwrite them, or the exact-length check at
		// the end of the stream sees the real out.
		end := out + length
		switch {
		case back >= 8:
			for ; out < end; out += 8 {
				binary.LittleEndian.PutUint64(dst[out:], binary.LittleEndian.Uint64(dst[out-back:]))
			}
		case back == 1:
			v := uint64(dst[out-1]) * 0x0101010101010101
			for ; out < end; out += 8 {
				binary.LittleEndian.PutUint64(dst[out:], v)
			}
		default:
			for ; out < end; out++ {
				dst[out] = dst[out-back]
			}
		}
		out = end
	}

	for {
		if nb < 48 {
			if len(src)-pos >= 8 {
				bb |= binary.LittleEndian.Uint64(src[pos:]) << (uint(nb) & 63)
				pos += (63 - nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && pos < len(src) {
					bb |= uint64(src[pos]) << (uint(nb) & 63)
					pos++
					nb += 8
				}
			}
		}

		e := lit.lookup(bb)
		n := uint(e & 15)
		bb >>= n
		nb -= int(n)
		if e&entLit != 0 {
			if nb < 0 {
				return errInflateTruncated
			}
			if out >= len(dst) {
				return errInflateLong
			}
			dst[out] = byte(e >> 16)
			out++
			continue
		}
		if e&(entEOB|entBad) != 0 {
			if e&entBad != 0 {
				return errInflateSymbol
			}
			if nb < 0 {
				return errInflateTruncated
			}
			d.pos, d.bb, d.nb, d.out = pos, bb, nb, out
			return nil
		}
		n = uint(e>>4) & 15
		length := int(e>>16) + int(uint32(bb)&(1<<n-1))
		bb >>= n
		nb -= int(n)

		e = dist.lookup(bb)
		if e&entBad != 0 {
			return errInflateSymbol
		}
		n = uint(e & 15)
		bb >>= n
		nb -= int(n)
		n = uint(e>>4) & 15
		back := int(e>>16) + int(uint32(bb)&(1<<n-1))
		bb >>= n
		nb -= int(n)

		if nb < 0 {
			return errInflateTruncated
		}
		if back > out {
			return errInflateDistance
		}
		if length > len(dst)-out {
			return errInflateLong
		}
		end := out + length
		if back >= length {
			copy(dst[out:end], dst[out-back:])
			out = end
			continue
		}
		// Overlapping match: the copied region repeats with period back, so
		// each pass can copy everything produced so far.
		for start := out - back; out < end; {
			out += copy(dst[out:end], dst[start:out])
		}
	}
}
