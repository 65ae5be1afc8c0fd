package imaging

import (
	"compress/flate"
	"fmt"
	"sync"

	"repro/internal/bufpool"
)

// The lossless packed form decoded pixels take on the wire. The interleaved
// RGB bytes are split into three planes — G, R−G and B−G, the channel
// differences being far flatter than the channels — each plane is predicted
// as deltaEncode predicts SJPG's (left neighbour; the first column from the
// row above), and the residuals go through one Huffman-only DEFLATE stream:
// after the planar filter LZ matching finds nothing worth its time. On
// photo-like crops this is ≈0.45 of the pixel bytes; noise falls back to
// stored blocks, 5 B per 65 535 B over them.

// packer is the pooled encoder state: the DEFLATE writer (compress/flate
// allocates ≈650 KB for one at any level) and the destination it appends to.
type packer struct {
	zw  *flate.Writer
	out []byte
}

func (p *packer) Write(b []byte) (int, error) {
	p.out = append(p.out, b...)
	return len(b), nil
}

var packerPool = sync.Pool{New: func() any {
	p := new(packer)
	zw, err := flate.NewWriter(p, flate.HuffmanOnly)
	if err != nil {
		panic(err) // HuffmanOnly is always a valid level
	}
	p.zw = zw
	return p
}}

// AppendPacked appends the packed form of im's pixels to dst and returns the
// extended slice. The dimensions are not part of it; Unpack takes them from
// the caller's own header. All scratch is pooled, so with capacity in dst the
// call does not allocate.
func AppendPacked(dst []byte, im *Image) ([]byte, error) {
	w, n := im.W, im.W*im.H
	planes := bufpool.GetBytes(Channels * n)
	defer bufpool.PutBytes(planes)
	gPlane, rPlane, bPlane := planes[:n], planes[n:2*n], planes[2*n:]
	var pg, pr, pb uint8 // the first column's predictor: the pixel above it
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*w*Channels : (y+1)*w*Channels]
		gRow, rRow, bRow := gPlane[y*w:(y+1)*w], rPlane[y*w:(y+1)*w], bPlane[y*w:(y+1)*w]
		rRow, bRow = rRow[:len(gRow)], bRow[:len(gRow)]
		px := row
		for x := range gRow {
			g := px[1]
			r, b := px[0]-g, px[2]-g
			gRow[x], rRow[x], bRow[x] = g-pg, r-pr, b-pb
			pg, pr, pb = g, r, b
			px = px[Channels:]
		}
		pg, pr, pb = row[1], row[0]-row[1], row[2]-row[1]
	}

	p := packerPool.Get().(*packer)
	p.out = dst
	p.zw.Reset(p)
	_, err := p.zw.Write(planes)
	if err == nil {
		err = p.zw.Close()
	}
	dst, p.out = p.out, nil // a pooled packer must not pin the caller's buffer
	packerPool.Put(p)
	if err != nil {
		return nil, fmt.Errorf("imaging: pack %dx%d: %w", im.W, im.H, err)
	}
	return dst, nil
}

// Unpack rebuilds the w×h image AppendPacked wrote. data must be exactly one
// packed image: truncated, damaged or followed by anything, it is ErrCorrupt,
// and dimensions the payload cannot produce are rejected before any buffer is
// sized from them. The returned image is pool-backed and owned by the caller.
func Unpack(data []byte, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, fmt.Errorf("%w: packed dims %dx%d", ErrCorrupt, w, h)
	}
	n := w * h
	if !canInflateTo(len(data), Channels*n) {
		return nil, fmt.Errorf("%w: %d-byte payload cannot hold %dx%d", ErrCorrupt, len(data), w, h)
	}
	planes := bufpool.GetBytes(Channels * n)
	defer bufpool.PutBytes(planes)
	used, err := inflateInto(data, planes)
	if err != nil {
		return nil, fmt.Errorf("%w: unpack: %v", ErrCorrupt, err)
	}
	if used != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after the packed image", ErrCorrupt, len(data)-used)
	}
	im, err := NewPooled(w, h)
	if err != nil {
		return nil, err
	}
	gPlane, rPlane, bPlane := planes[:n], planes[n:2*n], planes[2*n:]
	var g, r, b uint8
	for y := 0; y < h; y++ {
		row := im.Pix[y*w*Channels : (y+1)*w*Channels]
		gRow, rRow, bRow := gPlane[y*w:(y+1)*w], rPlane[y*w:(y+1)*w], bPlane[y*w:(y+1)*w]
		rRow, bRow = rRow[:len(gRow)], bRow[:len(gRow)]
		px := row
		for x, dg := range gRow {
			g, r, b = g+dg, r+rRow[x], b+bRow[x]
			px[0], px[1], px[2] = r+g, g, b+g
			px = px[Channels:]
		}
		g, r, b = row[1], row[0]-row[1], row[2]-row[1]
	}
	return im, nil
}
