package imaging

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
)

// The sliced form (DESIGN.md "Sliced raw fetches") is what a raw fetch ships
// of a stored container when the crop it will decode is known, never stored:
// the header with rowsFlag set, the index, uvarints k, b0, b1, s0 and s1, and
// the bytes held names. Only a crop of the units of bands [b0, b1) and strips
// [s0, s1) reads it; every other reader refuses it with errSliced.

// held calls keep with the byte ranges of the first k scans, ascending and
// disjoint, that the sliced form of the units sp names holds after the index:
// each scan's tables and, for each band of sp, one range from the first of
// its units to the last — in scan 0 strips [s0, s1), in a refinement scan the
// band. A unit needs nothing from outside itself. Slice cuts by it and
// unslice puts back by it.
func (c *container) held(k int, sp span, keep func(lo, hi int)) {
	lo, hi := 0, 0
	add := func(l, h int) {
		if l > hi {
			if hi > lo {
				keep(lo, hi)
			}
			lo = l
		}
		hi = max(hi, h)
	}
	g := gridOf(c.w, c.h)
	for j := range k {
		codes := c.start[j] + c.tables[j]
		add(c.start[j], codes)
		for u, pos, x := 0, 0, c.index[j]; u <= sp.last(g, j); u++ {
			v, m := binary.Uvarint(x)
			from := pos
			pos, x = pos+int(v), x[m:]
			if sp.holds(g, j, u) {
				add(codes+from>>3, codes+(pos+7)>>3)
			}
		}
	}
	if hi > lo {
		keep(lo, hi)
	}
}

// readRows reads what follows a sliced form's index and checks that the held
// bytes are all there is.
func (c *container) readRows(data []byte) error {
	rest, v := data[c.start[0]:], [5]int{}
	for x := range v { // one unread, or past maxDim, reads 0, which the check below refuses
		if u, m := binary.Uvarint(rest); m > 0 && u <= maxDim {
			v[x], rest = int(u), rest[m:]
		}
	}
	k, sp, g := v[0], span{v[1], v[2], v[3], v[4]}, gridOf(c.w, c.h)
	if k < 1 || k > c.scans || sp.b0 >= sp.b1 || sp.s0 >= sp.s1 || !sp.within(g.all()) {
		return fmt.Errorf("%w: sliced form claims %d of %d scans, bands %d–%d and strips %d–%d", ErrCorrupt, k, c.scans, sp.b0, sp.b1, sp.s0, sp.s1)
	}
	c.present, c.rows, c.cut = k, len(data)-len(rest), sp
	n := 0
	c.held(k, sp, func(lo, hi int) { n += hi - lo })
	if n != len(rest) {
		return fmt.Errorf("%w: sliced form holds %d bytes, its units %d", ErrCorrupt, len(rest), n)
	}
	return nil
}

// unslice returns, in a pooled buffer the caller puts back, the prefix a
// sliced form holding rect's units was cut from, zero where it holds none.
func unslice(data []byte, rect Rect) ([]byte, error) {
	c, err := parse(data)
	if err != errSliced { // what parse says of a form it has read through
		return nil, err
	}
	if err := checkCropResize(rect, c.w, c.h, 1, 1); err != nil { // the rect alone
		return nil, err
	}
	if sp := spanOf(rect); !sp.within(c.cut) {
		return nil, fmt.Errorf("%w: %+v lies in bands %d–%d and strips %d–%d, it holds %d–%d and %d–%d",
			errSliced, rect, sp.b0, sp.b1, sp.s0, sp.s1, c.cut.b0, c.cut.b1, c.cut.s0, c.cut.s1)
	}
	out := bufpool.GetBytes(c.start[c.present])
	clear(out)
	copy(out, data[:c.start[0]])
	out[4] = sjpgVersion
	o := c.rows
	c.held(c.present, c.cut, func(lo, hi int) { o += copy(out[lo:hi], data[o:]) })
	return out, nil
}

// Slice writes to dst, which must hold len(data) bytes, what a raw fetch of
// data, a stored container, ships, and returns its length: the prefix that
// withholds drop refinement scans, as FidelityPrefixSize cuts it, and when
// rows lies in the image and misses a unit, of it the sliced form for a crop
// of rows, if that is shorter. It only copies: data it cannot parse as a
// stored container, it copies whole.
func Slice(dst, data []byte, drop int, rows Rect) int {
	c, err := whole(data)
	if err != nil {
		return copy(dst, data)
	}
	k := min(c.present, max(c.scans-max(drop, 0), 1))
	if sp := spanOf(rows); rows.within(c.w, c.h) && sp != gridOf(c.w, c.h).all() {
		var desc [5 * binary.MaxVarintLen32]byte
		d := desc[:0]
		for _, v := range [5]int{k, sp.b0, sp.b1, sp.s0, sp.s1} {
			d = binary.AppendUvarint(d, uint64(v))
		}
		n := c.start[0] + len(d)
		c.held(k, sp, func(lo, hi int) { n += hi - lo })
		if n < c.start[k] {
			o := copy(dst, data[:c.start[0]])
			dst[4] |= rowsFlag
			o += copy(dst[o:], d)
			c.held(k, sp, func(lo, hi int) { o += copy(dst[o:], data[lo:hi]) })
			return o
		}
	}
	return copy(dst, data[:c.start[k]])
}
