package imaging

import (
	"encoding/binary"
	"fmt"
)

// Planes is a container decoded once for many crops: its Y/Cb/Cr planes with
// every row prediction undone and every refinement bit folded in — what the
// dequantizer reads, 1.5 B a pixel (chroma is 2x2-subsampled) — and the
// shifts that dequantize them. It is the pipeline's decoded stage: a storage
// node that offloads the same object every epoch keeps one and crops from it
// instead of decoding the object again, and a fetch cut after the decode
// ships one (AppendPlanes). It is immutable, so any number of goroutines may
// crop from one at once, and its memory is plain, never pooled: it lives as
// long as its holder keeps it.
type Planes struct{ p ycc }

// DecodePlanes decodes data, a container or a prefix of whole scans, with
// Decode's checks — every unit, every scan's CRC — into Planes. Its scratch
// is pooled; what it allocates is the Planes it returns.
func DecodePlanes(data []byte) (*Planes, error) {
	c, err := whole(data)
	if err != nil {
		return nil, err
	}
	p, err := c.decode(data, c.present, gridOf(c.w, c.h).all())
	if err != nil {
		return nil, err
	}
	defer p.release()
	p.undoEveryPrediction()
	n, cn := len(p.y), len(p.cb)
	buf := make([]byte, n+2*cn)
	copy(buf, p.buf[:n+2*cn]) // newYCC cuts y, cb and cr from the front of buf
	return planesOf(p.w, p.h, p.yShift, p.cShift, buf), nil
}

// planesOf cuts the planes of a w×h image from buf, which holds exactly them.
func planesOf(w, h int, yShift, cShift uint, buf []byte) *Planes {
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	return &Planes{ycc{w: w, h: h, yShift: yShift, cShift: cShift,
		y: buf[:n], cb: buf[n : n+cn], cr: buf[n+cn:], buf: buf}}
}

// Dims returns the planes' image width and height.
func (pl *Planes) Dims() (w, h int) { return pl.p.w, pl.p.h }

// Bytes is the memory the planes hold: w·h luma samples and two chroma
// planes of ⌈w/2⌉·⌈h/2⌉.
func (pl *Planes) Bytes() int { return len(pl.p.buf) }

// CropResize is DecodeCropResize(data, rect, w, h) of the data pl was decoded
// from, the same pixels and errors, with nothing left to decode. The result
// is pool-backed.
func (pl *Planes) CropResize(rect Rect, w, h int) (*Image, error) {
	p := pl.p // the steps take a ycc by pointer; a copy keeps pl's own untouched
	return p.cropResize(rect, w, h)
}

// planesHeader is what AppendPlanes writes before the planes: W and H
// (little-endian uint32), then the luma and the chroma shift.
const planesHeader = 4 + 4 + 1 + 1

// maxShift bounds a shift: the quality's (at most 4) plus the scans a prefix
// withholds (at most MaxScans−1).
const maxShift = 4 + MaxScans - 1

// PlanesSize returns the bytes AppendPlanes writes for a w×h image.
func PlanesSize(w, h int) int { return planesHeader + w*h + 2*((w+1)/2)*((h+1)/2) }

// AppendPlanes appends pl to dst — its header, then Y, Cb and Cr as they lie
// in memory — and returns the extended slice. With PlanesSize spare capacity
// it allocates nothing.
func AppendPlanes(dst []byte, pl *Planes) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(pl.p.w))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(pl.p.h))
	return append(append(dst, uint8(pl.p.yShift), uint8(pl.p.cShift)), pl.p.buf...)
}

// UnmarshalPlanes parses what AppendPlanes wrote into Planes over a copy of
// the planes, in plain memory. It refuses, with ErrCorrupt and before any
// buffer is sized, a short header, dims over the cap, a shift no container
// dequantizes by, and planes that are not exactly the header's size.
func UnmarshalPlanes(data []byte) (*Planes, error) {
	if len(data) < planesHeader {
		return nil, fmt.Errorf("%w: planes: %d bytes of header", ErrCorrupt, len(data))
	}
	w, h := int(binary.LittleEndian.Uint32(data)), int(binary.LittleEndian.Uint32(data[4:]))
	yShift, cShift := uint(data[8]), uint(data[9])
	switch {
	case w <= 0 || h <= 0 || w > maxDim || h > maxDim:
		return nil, fmt.Errorf("%w: planes: dims %dx%d", ErrCorrupt, w, h)
	case yShift > maxShift || cShift > maxShift:
		return nil, fmt.Errorf("%w: planes: shifts %d and %d", ErrCorrupt, yShift, cShift)
	case len(data) != PlanesSize(w, h):
		return nil, fmt.Errorf("%w: planes: %d bytes for %dx%d", ErrCorrupt, len(data)-planesHeader, w, h)
	}
	return planesOf(w, h, yShift, cShift, append([]byte(nil), data[planesHeader:]...)), nil
}
