package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bufpool"
)

// The lossless packed form decoded pixels take on the wire. The interleaved
// RGB bytes are three planes — G, R−G and B−G, the differences being far
// flatter than the channels — each sample predicted by the LOCO-I median edge
// detector from its left, upper and upper-left neighbours (G compared as
// uint8, the differences as int8; a row of zeros stands above the first row,
// and the first column takes the sample above as its left and upper-left).
// The residuals, mod 256, are Huffman coded, each plane with its own code:
//
//	1 byte   H, the bytes of code lengths that follow: 1..128, or 0
//	H bytes  code lengths 0..12, two a byte, high nibble first, in the order
//	         of the residuals 0, −1, +1, −2, …; the unused tail is not written
//	         H > 0: the w·h codes, MSB first, zero-padded to a byte
//	         H = 0: the w·h residuals as they are
//
// Codes are canonical, by length and then by that order; a plane of one
// residual value codes it as the bit 0. A plane is stored when coding would
// not shorten it, so an image packs to at most its pixel bytes plus one byte
// per plane. Photo-like crops pack to ≈0.40 of them.

// maxCodeLen bounds a code so that decoding is one lookup in a table of
// 1<<maxCodeLen entries, and a length fits the header's nibble.
const maxCodeLen = 12

// zigzag returns the residual at position z of the header's order.
func zigzag(z int) uint8 { return uint8(z>>1) ^ -uint8(z&1) }

// zeroRow stands above the first row of every image; it is only read.
var zeroRow [Channels * maxDim]byte

// packScratch is the pooled state of one AppendPacked, PackedSize or Unpack.
type packScratch struct {
	lens  [256]uint8              // code length by zig-zag position
	enc   [256]uint32             // by residual: canonical code<<4 | length
	table [1 << maxCodeLen]uint16 // by the next maxCodeLen bits: residual<<8 | length
}

var packPool = sync.Pool{New: func() any { return new(packScratch) }}

// med is the median of a, b and a+b−c. Branches here are coin flips on noisy
// planes; the compiler makes these conditional moves as long as the result
// indexes nothing, which is why residuals are counted in a pass of their own.
func med(a, b, c int) int { return max(min(a, b), min(max(a, b), a+b-c)) }

// residuals writes the prediction residuals of im's three planes to res, w·h
// bytes each.
func (s *packScratch) residuals(im *Image, res []byte) {
	w, n := im.W, im.W*im.H
	up := zeroRow[:w*Channels]
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*w*Channels:][:w*Channels]
		gRes, rRes, bRes := res[y*w:][:w], res[n+y*w:][:w], res[2*n+y*w:][:w]
		ag, ar, ab := int(up[1]), int(int8(up[0]-up[1])), int(int8(up[2]-up[1]))
		cg, cr, cb := ag, ar, ab
		for x := range gRes {
			px, ux := row[x*Channels:][:Channels], up[x*Channels:][:Channels]
			g, r, b := int(px[1]), int(int8(px[0]-px[1])), int(int8(px[2]-px[1]))
			ug, ur, ub := int(ux[1]), int(int8(ux[0]-ux[1])), int(int8(ux[2]-ux[1]))
			dg := uint8(g - med(ag, ug, cg))
			dr := uint8(r - med(ar, ur, cr))
			db := uint8(b - med(ab, ub, cb))
			gRes[x], rRes[x], bRes[x] = dg, dr, db
			ag, ar, ab, cg, cr, cb = g, r, b, ug, ur, ub
		}
		up = row
	}
}

// plan builds the code of a plane of residuals from their counts into s.lens
// and returns the plane's header byte and its packed size, which is exact:
// header plus ⌈Σ count × length / 8⌉.
func (s *packScratch) plan(plane []byte) (hdr, size int) {
	var h, byZ [256]int
	countBytes(plane, &h)
	last := 0
	for z := range byZ {
		if byZ[z] = h[zigzag(z)]; byZ[z] != 0 {
			last = z
		}
	}
	bits := codeLengths(byZ[:], maxCodeLen, s.lens[:])
	hdr = last/2 + 1
	if size = 1 + hdr + (bits+7)/8; size > len(plane) {
		return 0, 1 + len(plane)
	}
	return hdr, size
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

// codeLengths sets lens[s] to the length of symbol s's code in a
// minimum-redundancy code of at most limit bits for the counts freq — at most
// numLitLen symbols, at least one counted — or to 0 where freq[s] is, and
// returns Σ freq × length. Of equal counts the earlier symbol codes shorter.
func codeLengths(freq []int, limit int, lens []uint8) (bits int) {
	var keyBuf [numLitLen]uint64 // count<<16 | 0xffff−s, sorted: rarest first, then the later symbol
	var depth [numLitLen]int     // code length by rank in keys
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
	var count [numLitLen]int
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

// canon assigns s.enc from s.lens and returns how many residuals have a code
// and the codes' Kraft sum in units of 2^−maxCodeLen.
func (s *packScratch) canon() (symbols, kraft int) {
	var count, next [maxCodeLen + 1]int
	for _, l := range s.lens {
		count[l]++
	}
	symbols, count[0] = len(s.lens)-count[0], 0
	for l, code := 1, 0; l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
		kraft += count[l] << (maxCodeLen - l)
	}
	for z, l := range s.lens {
		s.enc[zigzag(z)] = uint32(next[l])<<4 | uint32(l)
		next[l]++
	}
	return symbols, kraft
}

// PackedSize returns len(AppendPacked(nil, im)) without producing the bytes.
func PackedSize(im *Image) int {
	n := im.W * im.H
	s := packPool.Get().(*packScratch)
	defer packPool.Put(s)
	res := bufpool.GetBytes(Channels * n)
	defer bufpool.PutBytes(res)
	s.residuals(im, res)
	total := 0
	for p := 0; p < Channels; p++ {
		_, size := s.plan(res[p*n : (p+1)*n])
		total += size
	}
	return total
}

// AppendPacked appends the packed form of im's pixels to dst and returns the
// extended slice. The dimensions are not part of it; Unpack takes them from
// the caller's own header. All scratch is pooled, so with capacity in dst the
// call does not allocate.
func AppendPacked(dst []byte, im *Image) []byte {
	n := im.W * im.H
	s := packPool.Get().(*packScratch)
	defer packPool.Put(s)
	res := bufpool.GetBytes(Channels * n)
	defer bufpool.PutBytes(res)
	s.residuals(im, res)
	for p := 0; p < Channels; p++ {
		plane := res[p*n : (p+1)*n]
		hdr, size := s.plan(plane)
		dst = append(dst, make([]byte, size)...)
		out := dst[len(dst)-size:]
		out[0] = byte(hdr)
		if hdr == 0 {
			copy(out[1:], plane)
			continue
		}
		for i := range out[1 : 1+hdr] {
			out[1+i] = s.lens[2*i]<<4 | s.lens[2*i+1]
		}
		s.canon()
		out = out[1+hdr:]
		var acc uint64 // the low nb bits are not yet written
		nb, o := uint(0), 0
		for _, r := range plane {
			e := s.enc[r]
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
	return dst
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
	for p := 0; p < Channels; p++ {
		var err error
		if data, err = s.readPlane(data, res[p*n:(p+1)*n]); err != nil {
			return nil, fmt.Errorf("%w: unpack %dx%d plane %d: %v", ErrCorrupt, w, h, p, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the packed image", ErrCorrupt, len(data))
	}
	im, err := NewPooled(w, h)
	if err != nil {
		return nil, err
	}
	unpredict(im, res)
	return im, nil
}

// unpredict inverts residuals: it rebuilds im's pixels from the three planes
// of residuals in res.
func unpredict(im *Image, res []byte) {
	w, n := im.W, im.W*im.H
	up := zeroRow[:w*Channels]
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*w*Channels:][:w*Channels]
		gRes, rRes, bRes := res[y*w:][:w], res[n+y*w:][:w], res[2*n+y*w:][:w]
		ag, ar, ab := int(up[1]), int(int8(up[0]-up[1])), int(int8(up[2]-up[1]))
		cg, cr, cb := ag, ar, ab
		for x, dg := range gRes {
			px, ux := row[x*Channels:][:Channels], up[x*Channels:][:Channels]
			ug, ur, ub := int(ux[1]), int(int8(ux[0]-ux[1])), int(int8(ux[2]-ux[1]))
			g := uint8(int(dg) + med(ag, ug, cg))
			r, b := uint8(int(rRes[x])+med(ar, ur, cr)), uint8(int(bRes[x])+med(ab, ub, cb))
			px[0], px[1], px[2] = r+g, g, b+g
			ag, ar, ab, cg, cr, cb = int(g), int(int8(r)), int(int8(b)), ug, ur, ub
		}
		up = row
	}
}

// readPlane decodes one plane from the front of data into plane and returns
// what follows it.
func (s *packScratch) readPlane(data, plane []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, errors.New("no plane header")
	}
	hdr, data := int(data[0]), data[1:]
	if hdr == 0 {
		if len(data) < len(plane) {
			return nil, errors.New("stored plane cut short")
		}
		return data[copy(plane, data):], nil
	}
	if hdr > len(s.lens)/2 || hdr > len(data) {
		return nil, fmt.Errorf("%d-byte code table in %d bytes", hdr, len(data))
	}
	s.lens = [256]uint8{}
	for i, b := range data[:hdr] {
		if b>>4 > maxCodeLen || b&15 > maxCodeLen {
			return nil, fmt.Errorf("code length over %d", maxCodeLen)
		}
		s.lens[2*i], s.lens[2*i+1] = b>>4, b&15
	}
	data = data[hdr:]
	symbols, kraft := s.canon()
	if kraft != len(s.table) && (symbols != 1 || kraft != len(s.table)/2) { // a lone code is the bit 0
		return nil, errors.New("code table not complete")
	}
	for i := range s.table[kraft:] {
		s.table[kraft+i] = 0xff // a length no bit buffer has
	}
	for r, e := range s.enc {
		if l := e & 15; l != 0 {
			first, span := int(e>>4)<<(maxCodeLen-l), 1<<(maxCodeLen-l)
			for i := range s.table[first:][:span] {
				s.table[first+i] = uint16(r)<<8 | uint16(l)
			}
		}
	}
	used, ok := decodeBits(&s.table, data, plane)
	if !ok {
		return nil, errors.New("residuals run past the payload, have no code, or leave padding bits set")
	}
	return data[used:], nil
}

// decodeBits decodes the bit stream at the front of data into plane and
// returns the length of the stream, its zero-padded last byte included. It is
// a function of its own so that its loop's few values stay in registers.
func decodeBits(table *[1 << maxCodeLen]uint16, data, plane []byte) (used int, ok bool) {
	var bb uint64 // the next nb bits, from bit 63 down
	nb, at := uint(0), 0
	for i := range plane {
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
