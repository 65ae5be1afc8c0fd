package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bufpool"
)

// The lossless packed form decoded pixels take on the wire: the interleaved
// RGB bytes as three planes, B−G, R−G and G in that order. Each sample is
// predicted from a to its left, b above, c above-left and d above-right (a
// row of zeros stands above the first row, the first column takes a = c = b,
// the last d = b): the differences, compared as int8, by the LOCO-I median
// edge detector; G, as uint8, by the median or, below the first row, by
// ⌊(a+b+d)/3⌋, whichever packs the image smaller. The residuals, mod 256,
// are Huffman coded:
//
//	table  1 byte H, then H bytes of code lengths 0..12, two a byte, high
//	       nibble first, in the order of the residuals 0, −1, +1, −2, …
//	B−G    one table (H = 1..128) and the w·h codes, MSB first, zero-padded
//	       to a byte; or H = 0 and the w·h residuals as they are
//	R−G    seven tables, each sample coded with the one its pixel's B−G
//	       residual picks (as int8, clamped to −3…+3; H = 0: no pixel has
//	       it), and the codes; or 255 and the residuals
//	G      as B−G, with one byte after a coded plane's table: 0 median, 1 mean
//
// Codes are canonical, by length and then by that order; a table of one
// residual value codes it as the bit 0. A plane is stored when coding would
// not shorten it, so an image packs to at most its pixel bytes plus one byte
// a plane. Photo-like crops pack to ≈0.37 of them. Stored SJPG
// planes share this entropy stage — code lengths, canonical codes, table
// header, bit order and lookup — with a run symbol added (planes.go).

const (
	// maxCodeLen bounds a code so that decoding is one lookup in a table of
	// 1<<maxCodeLen entries, and a length fits the header's nibble.
	maxCodeLen = 12
	ctxK       = 3 // R−G's tables are picked by the B−G residual clamped to ±ctxK
	contexts   = 2*ctxK + 1
	storedRG   = 0xff // a stored R−G plane's marker: no table has H > 128
)

// ctxSym is the table bits, table<<8, of an R−G symbol by its pixel's B−G
// residual.
var ctxSym = func() (t [256]uint16) {
	for r := range t {
		t[r] = uint16(min(max(int(int8(r)), -ctxK), ctxK)+ctxK) << 8
	}
	return t
}()

// zigzag returns the residual at position z of the header's order.
func zigzag(z int) uint8 { return uint8(z>>1) ^ -uint8(z&1) }

// zeroRow stands above the first row of every image; it is only read.
var zeroRow [Channels * maxDim]byte

// packScratch is the pooled state of one AppendPacked, PackedSize or Unpack,
// or of one SJPG decode (codec.go). The encoder's symbols are table<<8 |
// residual, so that one count loop and one bit loop serve a plane whatever its
// tables. Tables are planned into slots: B−G's, R−G's seven, G's by each
// predictor.
type packScratch struct {
	count [4][8 << 8]uint32                  // by symbol, four counters so that equal neighbours do not wait on one
	lens  [3 + contexts][256]uint8           // code length by zig-zag position, valid below 2·hdr
	hdr   [3 + contexts]int                  // H, a table's bytes of code lengths
	enc   [8 << 8]uint32                     // by symbol: canonical code<<4 | length
	table [8 << maxCodeLen]uint16            // by table<<maxCodeLen | the next maxCodeLen bits: residual<<8 | length
	part  [bandRows * stripCols * 3 / 2]byte // an SJPG unit's three parts, as inflate decodes them
}

var packPool = sync.Pool{New: func() any { return new(packScratch) }}

// med is the median of a, b and a+b−c. Branches here are coin flips on noisy
// planes; the compiler makes these conditional moves as long as the result
// indexes nothing, which is why residuals are counted in a pass of their own.
func med(a, b, c int) int { return max(min(a, b), min(max(a, b), a+b-c)) }

// predict writes the symbols of im's residuals to syms, w·h a plane: B−G,
// R−G, G by the median, G by the mean of three. A plane a loop keeps each
// loop's values in registers.
func predict(im *Image, syms []uint16) {
	w, n := im.W, im.W*im.H
	up := zeroRow[:w*Channels]
	for y := 0; y < im.H; y++ {
		row, bRes, gRes, mRes := im.Pix[y*w*Channels:][:w*Channels], syms[y*w:][:w], syms[2*n+y*w:][:w], syms[3*n+y*w:][:w]
		diffResiduals(row, up, 2, bRes, nil)
		diffResiduals(row, up, 0, syms[n+y*w:][:w], bRes)
		up, gRes = up[:len(row)], gRes[:len(mRes)]
		ag, ug := int(up[1]), int(up[1])
		cg := ag
		for x := range mRes {
			i := x*Channels + 1
			g, dg := int(row[i]), ug
			if i+Channels < len(up) {
				dg = int(up[i+Channels])
			}
			gRes[x], mRes[x] = uint16(uint8(g-med(ag, ug, cg))), uint16(uint8(g-(ag+ug+dg)*0x5556>>16)) // ⌊s/3⌋ for s < 2^15
			ag, cg, ug = g, ug, dg
		}
		if y == 0 {
			copy(mRes, gRes) // both predict the first row from the left
		}
		up = row
	}
}

// diffResiduals writes the median residuals of channel ch − G, compared as
// int8, along row to res, each in the table of its pixel's B−G residual if
// bRes is given.
func diffResiduals(row, up []byte, ch int, res, bRes []uint16) {
	up = up[:len(row)]
	a := int(int8(up[ch] - up[1]))
	c := a
	for x := range res {
		i := x * Channels
		v, u := int(int8(row[i+ch]-row[i+1])), int(int8(up[i+ch]-up[i+1]))
		sym := uint16(uint8(v - med(a, u, c)))
		if bRes != nil {
			sym |= ctxSym[uint8(bRes[x])]
		}
		res[x] = sym
		a, c = v, u
	}
}

// plan builds the codes of the planes predict wrote to syms and returns the
// three planes' packed sizes and g, the plane of syms G is packed from: 2
// (median) or 3 (mean).
func (s *packScratch) plan(syms []uint16, n int) (sizes [3]int, g int) {
	sizes[0] = s.planPlane(syms[:n], 1, 0, 0)
	sizes[1] = s.planPlane(syms[n:2*n], contexts, 1, 0)
	sizes[2], g = s.planPlane(syms[2*n:3*n], 1, 1+contexts, 1), 2
	if avg := s.planPlane(syms[3*n:], 1, 2+contexts, 1); avg < sizes[2] {
		sizes[2], g = avg, 3
	}
	return sizes, g
}

// planPlane builds the codes of a plane's tables into the lens slots from
// slot on and returns the plane's packed size, which is exact: extra header
// bytes, the tables and ⌈Σ count × length / 8⌉ — or stored, 1 + w·h.
func (s *packScratch) planPlane(plane []uint16, tables, slot, extra int) int {
	c := &s.count
	for k := range c {
		clear(c[k][:tables<<8])
	}
	const m = len(c[0]) - 1
	p := plane
	for ; len(p) >= 4; p = p[4:] {
		c[0][int(p[0])&m]++
		c[1][int(p[1])&m]++
		c[2][int(p[2])&m]++
		c[3][int(p[3])&m]++
	}
	for _, v := range p {
		c[0][int(v)&m]++
	}
	size, bits := extra, 0
	for t := range tables {
		var byZ [256]int
		last := -1
		for z := range byZ {
			v := t<<8 | int(zigzag(z))
			if byZ[z] = int(c[0][v]) + int(c[1][v]) + int(c[2][v]) + int(c[3][v]); byZ[z] != 0 {
				last = z
			}
		}
		h := (last + 2) / 2
		s.hdr[slot+t], size = h, size+1+h
		if h > 0 {
			bits += codeLengths(byZ[:2*h], maxCodeLen, s.lens[slot+t][:2*h])
		}
	}
	if size += (bits + 7) / 8; size > len(plane) {
		return 1 + len(plane)
	}
	return size
}

// codeLengths sets lens[s] to the length of symbol s's code in a
// minimum-redundancy code of at most limit bits for the counts freq — at most
// planeSyms symbols, at least one counted — or to 0 where freq[s] is, and
// returns Σ freq × length. Of equal counts the earlier symbol codes shorter.
func codeLengths(freq []int, limit int, lens []uint8) (bits int) {
	var keyBuf [planeSyms]uint64 // count<<16 | 0xffff−s, sorted: rarest first, then the later symbol
	var depth [planeSyms]int     // code length by rank in keys
	keys := keyBuf[:0]
	for s, c := range freq {
		if c != 0 {
			keys = append(keys, uint64(c)<<16|uint64(0xffff-s))
		}
	}
	slices.Sort(keys)
	m, a := len(keys), depth[:len(keys)]
	a[0] = 1 // the one-symbol code; any other a[0] is overwritten below
	if m > 1 {
		// Moffat and Katajainen's in-place minimum-redundancy code lengths: the
		// two-queue Huffman construction, a leaf before a tree of equal weight.
		for i, k := range keys {
			a[i] = int(k >> 16)
		}
		root, leaf, next := 0, 0, 0
		pick := func() (w int) { // the lighter of the next leaf and the next tree
			if leaf < m && (root >= next || a[leaf] <= a[root]) {
				leaf++
				return a[leaf-1]
			}
			w, a[root] = a[root], next // a tree, once picked, points at its parent
			root++
			return w
		}
		for ; next < m-1; next++ {
			a[next] = pick() + pick()
		}
		a[m-2] = 0
		for next := m - 3; next >= 0; next-- {
			a[next] = a[a[next]] + 1
		}
		avail, used, depth := 1, 0, 0
		for root, next := m-2, m-1; avail > 0; avail, used, depth = 2*used, 0, depth+1 {
			for ; root >= 0 && a[root] == depth; root-- {
				used++
			}
			for ; avail > used; avail-- {
				a[next] = depth
				next--
			}
		}
	}
	// Limit the lengths as JPEG's Annex K.3 does, on the count of codes of
	// each length: of a too-deep pair one moves up a level, the other joins a
	// shorter code pushed down one.
	var count [planeSyms]int
	for _, l := range a {
		count[l]++
	}
	for l := a[0]; l > limit; l-- {
		for count[l] > 0 {
			j := l - 2
			for count[j] == 0 {
				j--
			}
			count[l] -= 2
			count[l-1]++
			count[j+1] += 2
			count[j]--
		}
	}
	clear(lens)
	for i, l := m-1, 1; i >= 0; i-- { // commonest first, shortest first
		for count[l] == 0 {
			l++
		}
		count[l]--
		lens[0xffff-keys[i]&0xffff] = uint8(l)
		bits += int(keys[i]>>16) * l
	}
	return bits
}

// canon assigns enc, code<<4 | length by symbol (a residual, or 256 + a
// run's), from lens, code lengths by position in the header's order.
func canon(lens []uint8, enc []uint32) {
	var count, next [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for z, l := range lens {
		sym := z
		if z < 256 {
			sym = int(zigzag(z))
		}
		enc[sym] = uint32(next[l])<<4 | uint32(l)
		next[l]++
	}
}

// putLengths writes the table of the 2H code lengths lens to out and returns
// its size, 1 + H.
func putLengths(out []byte, lens []uint8) int {
	out[0] = byte(len(lens) / 2)
	for i := range out[1 : 1+len(lens)/2] {
		out[1+i] = lens[2*i]<<4 | lens[2*i+1]
	}
	return 1 + len(lens)/2
}

// readLengths reads a table of code lengths from the front of data into
// lens, at most len(lens) of them, and returns the 2H it read and what
// follows the table.
func readLengths(data, lens []uint8) (got, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, errors.New("no code table")
	}
	hdr := int(data[0])
	if data = data[1:]; 2*hdr > len(lens) || hdr > len(data) {
		return nil, nil, fmt.Errorf("%d-byte code table in %d bytes", hdr, len(data))
	}
	for i, b := range data[:hdr] {
		if b>>4 > maxCodeLen || b&15 > maxCodeLen {
			return nil, nil, fmt.Errorf("code length over %d", maxCodeLen)
		}
		lens[2*i], lens[2*i+1] = b>>4, b&15
	}
	return lens[:2*hdr], data[hdr:], nil
}

// decodeTable fills table so that the next maxCodeLen bits of a stream look
// up the code they begin with: symEntry | length, or 0xff where none begins.
// Canonical codes are in order of length and then of position, so each
// takes the next 2^(maxCodeLen−length) entries. A table that declares any
// lengths must be a complete code, or one code, the bit 0.
func decodeTable(lens []uint8, table *[1 << maxCodeLen]uint16) error {
	var count, next [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	kraft := 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l], kraft = kraft, kraft+count[l]<<(maxCodeLen-l)
	}
	if symbols := len(lens) - count[0]; len(lens) > 0 && kraft != len(table) && (symbols != 1 || kraft != len(table)/2) {
		return errors.New("code table not complete")
	}
	for z, l := range lens {
		if l != 0 {
			fill(table[next[l]:][:1<<(maxCodeLen-l)], symEntry[z]|uint16(l))
			next[l] += 1 << (maxCodeLen - l)
		}
	}
	fill(table[kraft:], 0xff) // a length no bit buffer has; all of an empty table
	return nil
}

// PackedSize returns len(AppendPacked(nil, im)) without producing the bytes.
func PackedSize(im *Image) int {
	n := im.W * im.H
	s := packPool.Get().(*packScratch)
	defer packPool.Put(s)
	syms := bufpool.GetUint16(4 * n)
	defer bufpool.PutUint16(syms)
	predict(im, syms)
	sizes, _ := s.plan(syms, n)
	return sizes[0] + sizes[1] + sizes[2]
}

// AppendPacked appends the packed form of im's pixels to dst and returns the
// extended slice. The dimensions are not part of it; Unpack takes them from
// the caller's own header. All scratch is pooled, so with capacity in dst the
// call does not allocate.
func AppendPacked(dst []byte, im *Image) []byte {
	n := im.W * im.H
	s := packPool.Get().(*packScratch)
	defer packPool.Put(s)
	syms := bufpool.GetUint16(4 * n)
	defer bufpool.PutUint16(syms)
	predict(im, syms)
	sizes, g := s.plan(syms, n)
	at := len(dst)
	dst = append(dst, make([]byte, sizes[0]+sizes[1]+sizes[2])...)
	out := dst[at:]
	s.put(out[:sizes[0]], syms[:n], 1, 0, -1, 0)
	s.put(out[sizes[0]:][:sizes[1]], syms[n:2*n], contexts, 1, -1, storedRG)
	s.put(out[sizes[0]+sizes[1]:], syms[g*n:][:n], 1, g-1+contexts, g-2, 0)
	return dst
}

// put writes a plane planned into the slots from slot on to out, its packed
// size: stored behind marker, or its tables, the predictor byte pred unless
// it is negative, and its codes.
func (s *packScratch) put(out []byte, plane []uint16, tables, slot, pred int, marker byte) {
	if len(out) == 1+len(plane) {
		out[0] = marker
		for i, v := range plane {
			out[1+i] = byte(v)
		}
		return
	}
	o := 0
	for t := range tables {
		lens := s.lens[slot+t][:2*s.hdr[slot+t]]
		o += putLengths(out[o:], lens)
		canon(lens, s.enc[t<<8:][:256])
	}
	if pred >= 0 {
		out[o] = byte(pred)
		o++
	}
	putBits(&s.enc, plane, out[o:])
}

// putBits writes the codes of plane to out, which is their length. It is a
// function of its own so that its loop's few values stay in registers.
func putBits(enc *[8 << 8]uint32, plane []uint16, out []byte) {
	var acc uint64 // the low nb bits are not yet written
	nb, o := uint(0), 0
	for _, v := range plane {
		e := enc[int(v)&(len(enc)-1)]
		acc = acc<<(e&15) | uint64(e>>4)
		if nb += uint(e & 15); nb >= 32 {
			nb -= 32
			binary.BigEndian.PutUint32(out[o:], uint32(acc>>nb))
			o += 4
		}
	}
	for acc <<= 64 - nb; o < len(out); o++ {
		out[o] = byte(acc >> 56)
		acc <<= 8
	}
}

// Unpack rebuilds the w×h image AppendPacked wrote. data must be exactly one
// packed image: truncated, damaged or followed by anything, it is ErrCorrupt.
// A residual costs at least a bit, so dimensions the payload cannot back are
// refused before a buffer is sized from them, and the image is requested only
// once the stream is accepted. It is pool-backed and owned by the caller.
func Unpack(data []byte, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, fmt.Errorf("%w: packed dims %dx%d", ErrCorrupt, w, h)
	}
	n := w * h
	if 8*len(data) < Channels*n {
		return nil, fmt.Errorf("%w: %d-byte payload cannot hold %dx%d", ErrCorrupt, len(data), w, h)
	}
	s := packPool.Get().(*packScratch)
	defer packPool.Put(s)
	res := bufpool.GetBytes(Channels * n)
	defer bufpool.PutBytes(res)
	var mean bool
	for p, sel := range [Channels][]byte{nil, res[:n], nil} {
		var err error
		if data, mean, err = s.readPlane(data, res[p*n:(p+1)*n], sel, p == 2); err != nil {
			return nil, fmt.Errorf("%w: unpack %dx%d plane %d: %v", ErrCorrupt, w, h, p, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the packed image", ErrCorrupt, len(data))
	}
	im, err := newPooled(w, h)
	if err != nil {
		return nil, err
	}
	unpredict(im, res, mean)
	return im, nil
}

// unpredict inverts predict: it rebuilds im's pixels from the planes of
// residuals in res, G's by the mean of three if mean is set. A row's G is
// rebuilt first, in a loop of its own as predict's are.
func unpredict(im *Image, res []byte, mean bool) {
	w, n := im.W, im.W*im.H
	up := zeroRow[:w*Channels]
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*w*Channels:][:w*Channels]
		undoG(row, up, res[2*n+y*w:][:w], mean && y > 0)
		undoDiffs(row, up, res[y*w:][:w], res[n+y*w:][:w])
		up = row
	}
}

// undoG rebuilds G along a row from its residuals. Each sample waits on the
// one before it, so a loop a predictor keeps that chain short.
func undoG(row, up, res []byte, mean bool) {
	up = up[:len(row)]
	ag := int(up[1])
	cg := ag
	if mean {
		for x, d := range res {
			i := x*Channels + 1
			ug, dg := int(up[i]), int(up[i])
			if i+Channels < len(up) {
				dg = int(up[i+Channels])
			}
			g := uint8(int(d) + (ag+(ug+dg))*0x5556>>16)
			row[i], ag = g, int(g)
		}
		return
	}
	for x, d := range res {
		i := x*Channels + 1
		ug := int(up[i])
		g := uint8(int(d) + med(ag, ug, cg))
		row[i], ag, cg = g, int(g), ug
	}
}

// undoDiffs rebuilds R and B along a row whose G is rebuilt from the
// residuals of B−G and R−G.
func undoDiffs(row, up, bRes, rRes []byte) {
	up, rRes = up[:len(row)], rRes[:len(bRes)]
	ar, ab := int(int8(up[0]-up[1])), int(int8(up[2]-up[1]))
	cr, cb := ar, ab
	for x, db := range bRes {
		i := x * Channels
		ur, ub := int(int8(up[i]-up[i+1])), int(int8(up[i+2]-up[i+1]))
		r, b := uint8(int(rRes[x])+med(ar, ur, cr)), uint8(int(db)+med(ab, ub, cb))
		row[i], row[i+2] = r+row[i+1], b+row[i+1]
		ar, ab, cr, cb = int(int8(r)), int(int8(b)), ur, ub
	}
}

// readPlane decodes one plane from the front of data into plane and returns
// what follows it. With sel it reads R−G's seven tables, sample i's being
// picked by sel[i]; for G, the predictor byte, and whether it names the mean.
func (s *packScratch) readPlane(data, plane, sel []byte, g bool) (rest []byte, mean bool, err error) {
	tables, marker := 1, byte(0)
	if sel != nil {
		tables, marker = contexts, storedRG
	}
	if len(data) == 0 {
		return nil, false, errors.New("no plane header")
	}
	if data[0] == marker {
		if len(data)-1 < len(plane) {
			return nil, false, errors.New("stored plane cut short")
		}
		return data[1+copy(plane, data[1:]):], false, nil
	}
	for t := range tables {
		lens, rest, err := readLengths(data, s.lens[t][:])
		if err == nil {
			err = decodeTable(lens, (*[1 << maxCodeLen]uint16)(s.table[t<<maxCodeLen:]))
		}
		if err != nil {
			return nil, false, fmt.Errorf("table %d: %v", t, err)
		}
		data = rest
	}
	if g {
		if len(data) == 0 || data[0] > 1 {
			return nil, false, errors.New("no predictor 0 or 1")
		}
		mean, data = data[0] == 1, data[1:]
	}
	// Until its residual replaces it, the plane holds each sample's table.
	if sel == nil {
		clear(plane)
	} else {
		for i, v := range sel[:len(plane)] {
			plane[i] = byte(ctxSym[v] >> 8)
		}
	}
	used, ok := decodeBits(&s.table, data, plane)
	if !ok {
		return nil, false, errors.New("residuals run past the payload, have no code, or leave padding bits set")
	}
	return data[used:], mean, nil
}

// fill sets every entry of span to v: the first 32 one at a time, then by
// doubling the run it has set, so that the many short spans of a table of
// long codes cost no copy calls.
func fill(span []uint16, v uint16) {
	for i := range span[:min(len(span), 32)] {
		span[i] = v
	}
	for k := 32; k < len(span); k *= 2 {
		copy(span[k:], span[:k])
	}
}

// decodeBits decodes the bit stream at the front of data into plane, sample
// i by the table plane[i] holds, and returns the length of the stream, its
// zero-padded last byte included. It is a function of its own so that its
// loop's few values stay in registers.
func decodeBits(tables *[8 << maxCodeLen]uint16, data, plane []byte) (used int, ok bool) {
	var bb uint64 // the next nb bits, from bit 63 down
	nb, at := uint(0), 0
	for i, t := range plane {
		table := (*[1 << maxCodeLen]uint16)(tables[int(t)&7<<maxCodeLen:]) // found off the chain of bb
		if nb < maxCodeLen {
			for ; nb <= 56 && at < len(data); nb += 8 {
				bb |= uint64(data[at]) << (56 - nb)
				at++
			}
		}
		e := table[bb>>(64-maxCodeLen)]
		l := uint(e & 0xff)
		if l > nb {
			return 0, false
		}
		plane[i] = uint8(e >> 8)
		bb <<= e & 63 // the shift waits for the load alone, not for l
		nb -= l
	}
	pad := nb % 8 // whole bytes read ahead belong to what follows
	return at - int(nb/8), pad == 0 || bb>>(64-pad) == 0
}
