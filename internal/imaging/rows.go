package imaging

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
)

// The row-sliced form (DESIGN.md "Row-sliced raw fetches") is what a raw
// fetch ships of a stored container when the crop it will decode is known,
// never stored: the header with rowsFlag set, the index, uvarints k, b0 and
// b1, and the bytes held names. Only a crop of bands [b0, b1) reads it; every
// other reader refuses it with errSliced.

// bandsOf returns the bands [b0, b1) rect's rows fall in.
func bandsOf(rect Rect) (b0, b1 int) {
	return rect.Y / bandRows, (rect.Y+rect.H-1)/bandRows + 1
}

// held calls keep with the byte ranges of the first k scans, ascending and
// disjoint, that the row-sliced form of bands [b0, b1) holds after the index:
// each plane's tables (a stored plane's marker), in scan 0 the bytes the
// first code of each band above b0 can take (a stored plane's first value),
// all the column-0 prediction chain reads there, and bands [b0, b1) whole.
// Slice cuts by it and unslice puts back by it.
func (c *container) held(k, b0, b1 int, keep func(lo, hi int)) {
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
	for j := range k {
		o := c.start[j]
		for i := range 3 {
			n, band, _ := planeBytes(c.w, c.h, i, j)
			size, index := c.size[j][i], c.index[j][i]
			codes, first := o+1, 8 // a stored plane: its marker, then its values
			if len(index) > 0 {
				total := 0
				for x := index; len(x) > 0; {
					v, m := binary.Uvarint(x)
					total, x = total+int(v), x[m:]
				}
				codes, first = o+size-(total+7)/8, maxCodeLen // parse held the bands to the codes
			}
			add(o, codes)
			from, pos := 0, 0 // in bits, from codes
			for b, x := 0, index; b < b1; b++ {
				if b == b0 {
					from = pos
				} else if b < b0 && j == 0 {
					add(codes+pos>>3, min(codes+(pos+7+first)>>3, o+size))
				}
				if len(index) == 0 {
					pos = 8 * min((b+1)*band, n)
					continue
				}
				v, m := binary.Uvarint(x)
				pos, x = pos+int(v), x[m:]
			}
			add(codes+from>>3, codes+(pos+7)>>3)
			o += size
		}
	}
	if hi > lo {
		keep(lo, hi)
	}
}

// readRows reads what follows a row-sliced form's index and checks that the
// held bytes are all there is.
func (c *container) readRows(data []byte) error {
	rest, v := data[c.start[0]:], [3]int{}
	for x := range v { // one unread, or past maxDim, reads 0, which the check below refuses
		if u, m := binary.Uvarint(rest); m > 0 && u <= maxDim {
			v[x], rest = int(u), rest[m:]
		}
	}
	k, b0, b1 := v[0], v[1], v[2]
	if k < 1 || k > c.scans || b0 >= b1 || b1 > (c.h+bandRows-1)/bandRows {
		return fmt.Errorf("%w: row-sliced form claims %d of %d scans and bands %d–%d", ErrCorrupt, k, c.scans, b0, b1)
	}
	c.present, c.rows, c.b0, c.b1 = k, len(data)-len(rest), b0, b1
	n := 0
	c.held(k, b0, b1, func(lo, hi int) { n += hi - lo })
	if n != len(rest) {
		return fmt.Errorf("%w: row-sliced form holds %d bytes, its bands %d", ErrCorrupt, len(rest), n)
	}
	return nil
}

// unslice returns, in a pooled buffer the caller puts back, the prefix a
// row-sliced form holding rect's bands was cut from, zero where it holds none.
func unslice(data []byte, rect Rect) ([]byte, error) {
	c, err := parse(data)
	if err != errSliced { // what parse says of a form it has read through
		return nil, err
	}
	if err := checkCropResize(rect, c.w, c.h, 1, 1); err != nil { // the rect alone
		return nil, err
	}
	if b0, b1 := bandsOf(rect); b0 < c.b0 || b1 > c.b1 {
		return nil, fmt.Errorf("%w: rows %d–%d lie in bands %d–%d, it holds %d–%d", errSliced, rect.Y, rect.Y+rect.H, b0, b1, c.b0, c.b1)
	}
	out := bufpool.GetBytes(c.start[c.present])
	clear(out)
	copy(out, data[:c.start[0]])
	out[4] = sjpgVersion
	o := c.rows
	c.held(c.present, c.b0, c.b1, func(lo, hi int) { o += copy(out[lo:hi], data[o:]) })
	return out, nil
}

// Slice writes to dst, which must hold len(data) bytes, what a raw fetch of
// data, a stored container, ships, and returns its length: the prefix that
// withholds drop refinement scans, as FidelityPrefixSize cuts it, and when
// rows lies in the image and misses a band, of it the row-sliced form for a
// crop of those rows, if that is shorter. It only copies: data it cannot
// parse as a stored container, it copies whole.
func Slice(dst, data []byte, drop int, rows Rect) int {
	c, err := whole(data)
	if err != nil {
		return copy(dst, data)
	}
	k := min(c.present, max(c.scans-max(drop, 0), 1))
	if b0, b1 := bandsOf(rows); rows.within(c.w, c.h) && (b0 > 0 || b1 < (c.h+bandRows-1)/bandRows) {
		var desc [3 * binary.MaxVarintLen32]byte
		d := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(desc[:0], uint64(k)), uint64(b0)), uint64(b1))
		n := c.start[0] + len(d)
		c.held(k, b0, b1, func(lo, hi int) { n += hi - lo })
		if n < c.start[k] {
			o := copy(dst, data[:c.start[0]])
			dst[4] |= rowsFlag
			o += copy(dst[o:], d)
			c.held(k, b0, b1, func(lo, hi int) { o += copy(dst[o:], data[lo:hi]) })
			return o
		}
	}
	return copy(dst, data[:c.start[k]])
}
