package imaging

import (
	"encoding/binary"
	"fmt"
)

// The fidelity API over the container's scans (codec.go): a prefix of k
// whole scans is the object at fidelity k.

// scansOf parses data and clamps k to its scan count, refusing k < 1 and data
// shorter than k scans.
func scansOf(data []byte, k int) (container, int, error) {
	if k < 1 {
		return container{}, 0, fmt.Errorf("%w: prefix of %d scans", errBadScans, k)
	}
	c, err := parse(data)
	if err != nil {
		return c, 0, err
	}
	k = min(k, c.scans)
	if len(data) < c.start[k] {
		return c, 0, fmt.Errorf("%w: %d bytes, %d-scan prefix needs %d", ErrTruncated, len(data), k, c.start[k])
	}
	return c, k, nil
}

// PrefixSize returns the byte length of the prefix of data carrying the
// first k scans (header and full index included). k is clamped to the
// container's scan count; k < 1 is an error — every prefix carries at least
// the base scan. data must hold at least the header and index (a full
// container, or any valid prefix at least k scans deep).
func PrefixSize(data []byte, k int) (int, error) {
	c, k, err := scansOf(data, k)
	if err != nil {
		return 0, err
	}
	return c.start[k], nil
}

// SlicePrefix returns the k-scan prefix of data as a zero-copy subslice —
// the serving hot path: a storage server slices the stored container
// without re-encoding. The result aliases data, so it inherits data's
// ownership: callers must not hand it to an owner that recycles buffers
// (copy into a pooled buffer first, as storage's prefix-serve path does).
func SlicePrefix(data []byte, k int) ([]byte, error) {
	end, err := PrefixSize(data, k)
	if err != nil {
		return nil, err
	}
	return data[:end], nil
}

// FidelityPrefixSize is the fidelity directive's one definition: the byte
// length of the prefix of data a fetch withholding drop refinement scans
// ships, which is the first scans − drop scans and never fewer than the base
// scan. ok is false when there is nothing to slice: the prefix would withhold
// nothing (drop is not positive, or data has one scan), data is not a
// container, or data (itself a prefix) holds fewer scans than that.
func FidelityPrefixSize(data []byte, drop int) (n int, ok bool) {
	if drop <= 0 {
		return 0, false
	}
	c, err := parse(data)
	keep := max(c.scans-drop, 1)
	if err != nil || keep == c.scans || c.present < keep {
		return 0, false
	}
	return c.start[keep], true
}

// DecodeAtFidelity decodes a full container (or a sufficiently deep prefix)
// using only its first k scans, producing the same pixels as decoding
// SlicePrefix(data, k) — the contract the cache's deep-hit path relies on.
func DecodeAtFidelity(data []byte, k int) (*Image, error) {
	c, k, err := scansOf(data, k)
	if err != nil {
		return nil, err
	}
	p, err := c.decode(data, k, gridOf(c.w, c.h).all())
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.image()
}

// IsProgressive reports whether data is a container of more than one scan.
// It, ProgressiveInfo and DecodeProgressive remain for the benchmark module,
// which still compiles against them.
func IsProgressive(data []byte) bool {
	_, _, _, l, err := parseHeader(data)
	return err == nil && l > 1
}

// ProgressiveInfo returns the geometry, quality, total scan count, and the
// number of whole scans present in data (which may be a prefix).
func ProgressiveInfo(data []byte) (w, h, quality, scans, present int, err error) {
	c, err := whole(data)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	return c.w, c.h, c.quality, c.scans, c.present, nil
}

// DecodeProgressive is Decode, with the number of scans decoded.
func DecodeProgressive(data []byte) (*Image, int, error) {
	_, _, _, _, k, err := ProgressiveInfo(data)
	if err != nil {
		return nil, 0, err
	}
	im, err := Decode(data)
	return im, k, err
}

// bitSpread[b] holds bit i of b in bit 0 of byte i.
var bitSpread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// refinement is where the refinement bits of a plane's values are: bit
// planes, one per refinement scan and the first the highest bit, one after
// another in packed.
type refinement struct {
	packed []uint8
	planes int
}

// fold appends the refinement bits to the values vals, whose first is the
// plane's value at: each value v becomes v<<1 | its bit, a bit plane at a
// time, for the eight values of a byte of the bit planes at once — at the ends
// of vals, in a copy that has the byte's eight. The mask drops the bit a value
// of 128 or more (a corrupt base scan) would push into its neighbour, as the
// uint8 shift does.
func (r refinement) fold(vals []uint8, at int) {
	span := len(r.packed) / r.planes
	for i := 0; i < len(vals); {
		g, s := (at+i)>>3, (at+i)&7
		n := min(8-s, len(vals)-i)
		var w [8]uint8
		word := vals[i:]
		if n < 8 {
			word = w[:]
			copy(w[s:], vals[i:i+n])
		}
		x := binary.LittleEndian.Uint64(word)
		for j := g; j < len(r.packed); j += span {
			x = x<<1&0xfefefefefefefefe | bitSpread[r.packed[j]]
		}
		binary.LittleEndian.PutUint64(word, x)
		if n < 8 {
			copy(vals[i:i+n], w[s:])
		}
		i += n
	}
}
