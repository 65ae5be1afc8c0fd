package imaging

// Planes is a container decoded once for many crops: its Y/Cb/Cr planes with
// every row prediction undone and every refinement bit folded in — what the
// dequantizer reads, 1.5 B a pixel (chroma is 2x2-subsampled). A storage node
// that offloads the same object every epoch keeps one and crops from it
// instead of decoding the object again. It is immutable, so any number of
// goroutines may crop from one at once, and its memory is plain, never
// pooled: it lives as long as its holder keeps it.
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
	return &Planes{ycc{w: p.w, h: p.h, yShift: p.yShift, cShift: p.cShift,
		y: buf[:n], cb: buf[n : n+cn], cr: buf[n+cn:], buf: buf}}, nil
}

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

// Image is Decode(data) of the data pl was decoded from. The result is
// pool-backed.
func (pl *Planes) Image() (*Image, error) {
	p := pl.p
	return p.image()
}
