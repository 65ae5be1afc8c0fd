package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"image/color"

	"repro/internal/bufpool"
)

// SJPG is a real lossy image codec standing in for JPEG. The encoder
// converts RGB to YCbCr, 2x2-subsamples the chroma planes, quantizes each
// plane by a quality-derived shift, delta-predicts rows, and codes the three
// planes of residuals one after another (planes.go). Like JPEG, its output
// size depends strongly on image content: smooth images compress an order of
// magnitude better than noisy ones.
//
// Each plane is cut into bands of bandRows luma rows (chroma: half as many),
// so that a crop decodes only the bands its rows fall in: column 0 of a band's
// first row predicts from the band before's first row, and the band index
// says where each band's codes start:
//
//	0..13   header: magic, version, quality, W, H (big-endian)
//	...     uvarint L, then L bytes of index: for each plane, its size in
//	        bytes (tables and codes), then each band's length in bits
//	...     the three planes, each its tables (or 0, stored) and then its
//	        bands' codes, one after another, zero-padded to a byte

const (
	sjpgMagic   = "SJPG"
	sjpgVersion = 3                 // 2 coded planes without bands, 1 stored them as DEFLATE blocks
	headerSize  = 4 + 1 + 1 + 4 + 4 // magic, version, quality, W, H
	bandRows    = 16                // luma rows a band
)

// Codec errors.
var (
	ErrCorrupt     = errors.New("imaging: corrupt SJPG stream")
	ErrBadQuality  = errors.New("imaging: quality must be in [1, 100]")
	ErrUnsupported = errors.New("imaging: unsupported format version")
)

// DefaultQuality is used by EncodeDefault and by the dataset generator.
const DefaultQuality = 80

// maxDim is the largest width or height any header (SJPG, SJPR, packed
// artifact) may claim.
const maxDim = 1 << 16

func shifts(quality int) (yShift, cShift uint) {
	switch {
	case quality >= 90:
		return 0, 1
	case quality >= 70:
		return 1, 2
	case quality >= 50:
		return 2, 3
	default:
		return 3, 4
	}
}

// Encode compresses im at the given quality (1..100) and returns the SJPG
// byte stream. The returned slice is freshly allocated at its exact length and
// owned by the caller; the plane scratch is pooled, the writer's on the stack.
func Encode(im *Image, quality int) ([]byte, error) {
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("%w: %d", ErrBadQuality, quality)
	}
	yShift, cShift := shifts(quality)

	n, cw, cn := im.W*im.H, (im.W+1)/2, ((im.W+1)/2)*((im.H+1)/2)
	buf := bufpool.GetBytes(n + 2*cn)
	defer bufpool.PutBytes(buf)
	planes := [3][]byte{buf[:n], buf[n : n+cn], buf[n+cn : n+2*cn]}
	fillPlanes(im, yShift, cShift, planes[0], planes[1], planes[2])

	var codes [3]planeCode
	strides, bands := [3]int{im.W, cw, cw}, [3]int{bandRows * im.W, bandRows / 2 * cw, bandRows / 2 * cw}
	size := 0
	for i, p := range planes {
		deltaEncode(p, strides[i], bandRows>>min(i, 1))
		size += codes[i].plan(p, bands[i])
	}
	// The planes, then their index: a plane's size and band lengths take ≤ 5, 4 B.
	scratch := bufpool.GetBytes(size + 3*(5+4*((im.H+bandRows-1)/bandRows)))
	defer bufpool.PutBytes(scratch)
	index, o := scratch[size:size], 0
	for i, p := range planes {
		index = binary.AppendUvarint(index, uint64(codes[i].size))
		index = codes[i].put(scratch[o:o+codes[i].size], p, bands[i], index)
		o += codes[i].size
	}
	out := make([]byte, headerSize+uvarintLen(len(index))+len(index)+size)
	copy(out, sjpgMagic)
	out[4], out[5] = sjpgVersion, uint8(quality)
	binary.BigEndian.PutUint32(out[6:10], uint32(im.W))
	binary.BigEndian.PutUint32(out[10:14], uint32(im.H))
	o = headerSize + binary.PutUvarint(out[headerSize:], uint64(len(index)))
	copy(out[o+copy(out[o:], index):], scratch[:size])
	return out, nil
}

// fillPlanes computes the SJPG-quantized Y/Cb/Cr planes for im: luma per
// pixel shifted by yShift, chroma 2x2-box-averaged then shifted by cShift.
// The plane slices must be sized W*H, cw*ch, cw*ch respectively.
func fillPlanes(im *Image, yShift, cShift uint, yPlane, cbPlane, crPlane []uint8) {
	w, h := im.W, im.H
	cw := (w + 1) / 2
	for y := 0; y < h; y += 2 {
		// One chroma row covers two pixel rows. Under the last row of an
		// odd-height image the second row aliases the first: every sum
		// doubles, and so does the divisor.
		y1 := y + 1
		if y1 == h {
			y1 = y
		}
		top, bot := im.Pix[y*w*Channels:(y+1)*w*Channels], im.Pix[y1*w*Channels:(y1+1)*w*Channels]
		yTop, yBot := yPlane[y*w:(y+1)*w], yPlane[y1*w:(y1+1)*w]
		cbRow, crRow := cbPlane[y/2*cw:(y/2+1)*cw], crPlane[y/2*cw:(y/2+1)*cw]
		for cx := range cbRow {
			// The box is two rows by two columns — one column at the end of
			// an odd width — so the mean is a shift by log2 of that.
			x, mean := 2*cx, uint(1)
			yy, cb, cr := color.RGBToYCbCr(top[3*x], top[3*x+1], top[3*x+2])
			yTop[x] = yy >> yShift
			cbSum, crSum := uint32(cb), uint32(cr)
			yy, cb, cr = color.RGBToYCbCr(bot[3*x], bot[3*x+1], bot[3*x+2])
			yBot[x] = yy >> yShift
			cbSum, crSum = cbSum+uint32(cb), crSum+uint32(cr)
			if x++; x < w {
				mean = 2
				yy, cb, cr = color.RGBToYCbCr(top[3*x], top[3*x+1], top[3*x+2])
				yTop[x] = yy >> yShift
				cbSum, crSum = cbSum+uint32(cb), crSum+uint32(cr)
				yy, cb, cr = color.RGBToYCbCr(bot[3*x], bot[3*x+1], bot[3*x+2])
				yBot[x] = yy >> yShift
				cbSum, crSum = cbSum+uint32(cb), crSum+uint32(cr)
			}
			cbRow[cx] = uint8(cbSum>>mean) >> cShift
			crRow[cx] = uint8(crSum>>mean) >> cShift
		}
	}
}

// EncodeDefault is Encode at DefaultQuality.
func EncodeDefault(im *Image) ([]byte, error) { return Encode(im, DefaultQuality) }

// Decode reconstructs an image from an SJPG stream, refusing it unless each
// band's codes start where the band index says. The returned image is
// pool-backed: the caller owns it and should call Release when done to keep
// the decode path allocation-free at steady state (skipping Release is safe,
// merely slower).
func Decode(data []byte) (*Image, error) {
	s, err := parseSJPG(data)
	if err != nil {
		return nil, err
	}
	p, err := s.decode(0, (s.h+bandRows-1)/bandRows)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.image()
}

// DecodeCropResize is CropResize(Decode(data), rect, w, h) without the full
// image in between: it checks the header, the band index and the rect, then
// decodes only the bands rect's rows fall in, with Decode's checks, and
// dequantizes only the pixels the resample reads (ycc.cropResize). Where
// Decode accepts, the pixels and errors are CropResize(Decode)'s; a fault in a
// band it does not read it need not see — over every row it refuses as Decode
// does — which is why a store decodes each object in full as it loads
// (dataset.DirSet.Materialize). The result is pool-backed.
func DecodeCropResize(data []byte, rect Rect, w, h int) (*Image, error) {
	s, err := parseSJPG(data)
	if err != nil {
		return nil, err
	}
	if err := checkCropResize(rect, s.w, s.h, w, h); err != nil {
		return nil, err
	}
	p, err := s.decode(rect.Y/bandRows, (rect.Y+rect.H-1)/bandRows+1)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.cropResize(rect, w, h)
}

// ycc is an accepted stream between its two decode steps: the still quantized
// Y/Cb/Cr planes of a w×h image (chroma 2x2-subsampled) and the shifts that
// dequantize them — for a progressive prefix the undelivered refinement depth
// on top of the quality-derived shift. The planes are cut from buf, a bufpool
// buffer the ycc owns until release. While residual is set they are what the
// stream decoded to, row-prediction residuals, and the one step that reads
// them — image or cropResize — first undoes the prediction where it will
// read, and there folds in the bits of the refinement bit planes that follow
// the planes in buf; the rest stays residuals, so a ycc serves one such call.
type ycc struct {
	w, h           int
	yShift, cShift uint
	y, cb, cr      []uint8
	buf            []uint8
	residual       bool
	bits           int // refinement bit planes after the planes in buf
	band           int // rows, a power of two: see deltaEncode
}

// newYCC cuts the planes of a w×h image from the front of buf, which the
// caller is about to inflate residuals into, predicted as one band.
func newYCC(w, h int, yShift, cShift uint, buf []uint8) ycc {
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	return ycc{w: w, h: h, yShift: yShift, cShift: cShift,
		y: buf[:n], cb: buf[n : n+cn], cr: buf[n+cn : n+2*cn], buf: buf, residual: true, band: maxDim}
}

func (p *ycc) release() { bufpool.PutBytes(p.buf) }

// undoPrediction turns residuals back into plane values on the luma rows that
// rows lists, through luma column last, and on the chroma under them.
func (p *ycc) undoPrediction(rows []int32, last int) {
	if !p.residual {
		return
	}
	p.residual = false
	cw, n, cn := (p.w+1)/2, len(p.y), len(p.cb)
	packed := p.buf[n+2*cn:]
	undoPrediction(p.y, p.w, rows, 0, last, p.band, refinement{packed, p.bits, 0})
	undoPrediction(p.cb, cw, rows, 1, last>>1, p.band>>1, refinement{packed, p.bits, n})
	undoPrediction(p.cr, cw, rows, 1, last>>1, p.band>>1, refinement{packed, p.bits, n + cn})
}

// undoEveryPrediction is undoPrediction over the whole image.
func (p *ycc) undoEveryPrediction() {
	s := samplerPool.Get().(*sampler)
	s.rows = s.rows[:0]
	for r := 0; r < p.h; r++ {
		s.rows = append(s.rows, int32(r))
	}
	p.undoPrediction(s.rows, p.w-1)
	samplerPool.Put(s)
}

// sjpgStream is an accepted SJPG header and band index: each plane's bytes,
// its bands' lengths in bits (uvarints) and its bytes a band.
type sjpgStream struct {
	w, h, quality int
	planes, index [3][]byte
	band          [3]int
}

// parseSJPG checks the header and the band index before any buffer is sized:
// the planes tile the payload, each plane's band lengths add up to its codes,
// and each band's codes are long enough to yield its rows.
func parseSJPG(data []byte) (s sjpgStream, err error) {
	if s.w, s.h, s.quality, err = parseHeader(data); err != nil {
		return s, err
	}
	index := data[headerSize:]
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(index)
		index = index[max(k, 0):]
		return v, k > 0
	}
	bad := func(format string, a ...any) (sjpgStream, error) {
		return s, fmt.Errorf("%w: band index: "+format, append([]any{ErrCorrupt}, a...)...)
	}
	size, ok := next()
	if !ok || size > uint64(len(index)) {
		return bad("truncated uvarint, or %d bytes of index in %d", size, len(index))
	}
	index, data = index[:size], index[size:]
	for i := range s.planes {
		size, ok := next()
		if !ok || size > uint64(len(data)) {
			return bad("plane %d: truncated uvarint, or %d bytes in %d", i, size, len(data))
		}
		plane, from := data[:size], index
		s.planes[i], data = plane, data[size:]
		// The codes follow the stored marker, or the tables: H, H bytes, R,
		// R bytes.
		codes := 1
		if len(plane) == 0 {
			codes = 2
		} else if r := 1 + int(plane[0]); plane[0] != 0 {
			codes = r + 1 + int(plane[min(r, len(plane)-1)])
		}
		if codes > len(plane) {
			return bad("plane %d: %d bytes hold no codes", i, len(plane))
		}
		have, stride, rows := 8*uint64(len(plane)-codes), s.w, s.h
		if i > 0 {
			stride, rows = (s.w+1)/2, (s.h+1)/2
		}
		n := stride * rows
		s.band[i] = bandRows >> min(i, 1) * stride
		for lo, b := 0, 0; lo < n; lo, b = lo+s.band[i], b+1 {
			bits, ok := next()
			if rows := uint64(min(s.band[i], n-lo)); !ok || bits > have || bits*maxRun < rows || plane[0] == 0 && bits != 8*rows {
				return bad("plane %d band %d: a truncated length, or %d bits of the plane's %d left for %d bytes", i, b, bits, have, rows)
			}
			have -= bits
		}
		if have >= 8 {
			return bad("plane %d: bands end %d bits short of it", i, have)
		}
		s.index[i] = from[:len(from)-len(index)]
	}
	if len(index)+len(data) != 0 {
		return bad("%d trailing index bytes, %d bytes after the planes", len(index), len(data))
	}
	return s, nil
}

// decode decodes bands [b0, b1) of each plane into pooled whole planes.
func (s *sjpgStream) decode(b0, b1 int) (ycc, error) {
	yShift, cShift := shifts(s.quality)
	p := newYCC(s.w, s.h, yShift, cShift, bufpool.GetBytes(s.w*s.h+2*((s.w+1)/2)*((s.h+1)/2)))
	p.band = bandRows
	sc := packPool.Get().(*packScratch)
	defer packPool.Put(sc)
	for i, dst := range [3][]byte{p.y, p.cb, p.cr} {
		if err := s.inflate(i, (*[2 << maxCodeLen]uint16)(sc.table[:]), dst, b0, b1); err != nil {
			p.release()
			return ycc{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return p, nil
}

// inflate is the band decoder: it decodes bands [b0, b1) of plane i into dst,
// the whole plane, refusing each unless it ends where the index says the next
// starts (through the last, unless padding bits are set). A band start is a
// symbol start, so the fast loop runs to within a pass of each. Of each band
// above b0 it decodes only the first value, which the next band predicts from.
func (s *sjpgStream) inflate(i int, t *[2 << maxCodeLen]uint16, dst []byte, b0, b1 int) error {
	l := lane{t: t, data: s.planes[i], n: i + 1, next: i}
	l.planes[i] = dst
	if err := l.open(true); err != nil || l.dst == nil {
		return err // or a stored plane, copied whole
	}
	index, band := s.index[i], s.band[i]
	for b := 0; b < b1; b++ {
		bits, k := binary.Uvarint(index)
		index = index[k:]
		end, at := l.pos+int(bits), dst[b*band:min((b+1)*band, len(dst))]
		ok := true
		if b < b0 {
			_, ok = finishRuns(t, l.data, at[:1], l.pos, 0)
		} else {
			l.dst, l.out = at, 0
			l.run()
			var pos int
			if pos, ok = finishRuns(t, l.data, at, l.pos, l.out); ok && pos != end {
				return fmt.Errorf("plane %d band %d: codes end at bit %d, the index at %d", i, b, pos, end)
			}
		}
		if !ok {
			return fmt.Errorf("plane %d band %d: codes run past the plane or the band, have no symbol, or repeat nothing", i, b)
		}
		l.pos = end
	}
	if len(index) == 0 && padded(l.data, l.pos) {
		return fmt.Errorf("plane %d: padding bits set", i)
	}
	return nil
}

// image dequantizes the planes back into a pooled RGB image. The arithmetic
// is color.YCbCrToRGB's, with its per-chroma-sample terms hoisted out of the
// (up to four) pixels that share them.
func (p *ycc) image() (*Image, error) {
	w, h := p.w, p.h
	im, err := NewPooled(w, h)
	if err != nil {
		return nil, err
	}
	p.undoEveryPrediction()
	var yy1, c1 [256]int32
	p.dequantTables(&yy1, &c1)
	cw := (w + 1) / 2
	for y := 0; y < h; y += 2 {
		// Under the last row of an odd-height image the second row aliases
		// the first and is simply written twice.
		y1 := y + 1
		if y1 == h {
			y1 = y
		}
		top, bot := im.Pix[y*w*Channels:(y+1)*w*Channels], im.Pix[y1*w*Channels:(y1+1)*w*Channels]
		yTop, yBot := p.y[y*w:(y+1)*w], p.y[y1*w:(y1+1)*w]
		cbRow, crRow := p.cb[y/2*cw:(y/2+1)*cw], p.cr[y/2*cw:(y/2+1)*cw]
		for cx, cb := range cbRow {
			cb1, cr1 := c1[cb], c1[crRow[cx]]
			rAdd, gAdd, bAdd := 91881*cr1, -22554*cb1-46802*cr1, 116130*cb1
			x := 2 * cx
			if x+1 == w { // last column of an odd width
				l0, l1 := yy1[yTop[x]], yy1[yBot[x]]
				t, b := top[3*x:3*x+3:3*x+3], bot[3*x:3*x+3:3*x+3]
				t[0], t[1], t[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
				b[0], b[1], b[2] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
				break
			}
			t, b := top[3*x:3*x+6:3*x+6], bot[3*x:3*x+6:3*x+6]
			l0, l1 := yy1[yTop[x]], yy1[yTop[x+1]]
			t[0], t[1], t[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
			t[3], t[4], t[5] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
			l0, l1 = yy1[yBot[x]], yy1[yBot[x+1]]
			b[0], b[1], b[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
			b[3], b[4], b[5] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
		}
	}
	return im, nil
}

// dequantTables fills the two lookups both dequantizers share: dequantized
// luma pre-multiplied into YCbCrToRGB's yy1, and dequantized chroma
// re-centred on zero.
func (p *ycc) dequantTables(yy1, c1 *[256]int32) {
	for v := range yy1 {
		yy1[v] = int32(dequant(uint8(v), p.yShift)) * 0x10101
		c1[v] = int32(dequant(uint8(v), p.cShift)) - 128
	}
}

// cropResize dequantizes rect and resamples it to w×h: the pixels of
// CropResize(p.image(), rect, w, h) without the image. The resample reads at
// most two source rows per output row and two columns per output column, so
// only those rows × columns are converted — every pixel of the rect when it
// is no larger than the output, at most (2w)×(2h) otherwise — into a pooled
// compact buffer that blend then reads through taps renumbered to it.
// Conversion and blend are each the arithmetic of the unfused pair, so every
// byte is the same. The output image is requested only once rect is accepted.
func (p *ycc) cropResize(rect Rect, w, h int) (*Image, error) {
	if err := checkCropResize(rect, p.w, p.h, w, h); err != nil {
		return nil, err
	}
	dst, err := NewPooled(w, h)
	if err != nil {
		return nil, err
	}
	s := samplerPool.Get().(*sampler)
	defer samplerPool.Put(s)
	s.x.fill(rect.W, w)
	s.y.fill(rect.H, h)
	s.cols = s.x.compact(rect.X, s.cols)
	s.rows = s.y.compact(rect.Y, s.rows)
	p.undoPrediction(s.rows, int(s.cols[len(s.cols)-1]))
	if w == rect.W && h == rect.H {
		// Pure crop: the taps name every pixel of rect with weight one.
		p.convert(s.rows, s.cols, dst.Pix)
		return dst, nil
	}
	compact := bufpool.GetBytes(len(s.rows) * len(s.cols) * Channels)
	p.convert(s.rows, s.cols, compact)
	blend(compact, len(s.cols), &s.x, &s.y, dst)
	bufpool.PutBytes(compact)
	return dst, nil
}

// convert dequantizes the pixels at rows × cols into out, row-major, with
// image's tables and arithmetic. Two listed rows under one chroma row are
// converted together, so that each tapped chroma sample's terms are computed
// once for both.
func (p *ycc) convert(rows, cols []int32, out []uint8) {
	var yy1, c1 [256]int32
	p.dequantTables(&yy1, &c1)
	cw, n := (p.w+1)/2, len(cols)*Channels
	for k := 0; k < len(rows); k++ {
		r := rows[k]
		y0 := p.y[int(r)*p.w : (int(r)+1)*p.w]
		cbRow, crRow := p.cb[int(r>>1)*cw:(int(r>>1)+1)*cw], p.cr[int(r>>1)*cw:(int(r>>1)+1)*cw]
		px0 := out[:n]
		if r&1 == 0 && k+1 < len(rows) && rows[k+1] == r+1 {
			k++
			y1, px1 := p.y[int(r+1)*p.w:(int(r)+2)*p.w], out[n:2*n]
			out = out[2*n:]
			for _, c := range cols {
				cb1, cr1 := c1[cbRow[c>>1]], c1[crRow[c>>1]]
				rAdd, gAdd, bAdd := 91881*cr1, -22554*cb1-46802*cr1, 116130*cb1
				l0, l1 := yy1[y0[c]], yy1[y1[c]]
				px0[0], px0[1], px0[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
				px1[0], px1[1], px1[2] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
				px0, px1 = px0[Channels:], px1[Channels:]
			}
			continue
		}
		out = out[n:]
		for _, c := range cols {
			cb1, cr1 := c1[cbRow[c>>1]], c1[crRow[c>>1]]
			l := yy1[y0[c]]
			px0[0], px0[1], px0[2] = clamp8(l+91881*cr1), clamp8(l-22554*cb1-46802*cr1), clamp8(l+116130*cb1)
			px0 = px0[Channels:]
		}
	}
}

// clamp8 maps a 16.16 fixed-point channel to [0, 255].
func clamp8(v int32) uint8 {
	if uint32(v)&0xff000000 == 0 {
		return uint8(v >> 16)
	}
	return uint8(^(v >> 31))
}

func dequant(v uint8, shift uint) uint8 {
	if shift == 0 {
		return v
	}
	out := uint16(v)<<shift + 1<<(shift-1)
	if out > 255 {
		out = 255
	}
	return uint8(out)
}

// DecodeDims returns the pixel dimensions recorded in an SJPG header without
// decompressing the payload.
func DecodeDims(data []byte) (w, h int, err error) {
	w, h, _, err = parseHeader(data)
	return w, h, err
}

func parseHeader(data []byte) (w, h, quality int, err error) {
	if len(data) < headerSize || string(data[:4]) != sjpgMagic {
		return 0, 0, 0, ErrCorrupt
	}
	if data[4] != sjpgVersion {
		return 0, 0, 0, fmt.Errorf("%w: SJPG version %d, this build reads %d", ErrUnsupported, data[4], sjpgVersion)
	}
	quality = int(data[5])
	if quality < 1 || quality > 100 {
		return 0, 0, 0, fmt.Errorf("%w: quality %d", ErrCorrupt, quality)
	}
	w = int(binary.BigEndian.Uint32(data[6:10]))
	h = int(binary.BigEndian.Uint32(data[10:14]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return 0, 0, 0, fmt.Errorf("%w: dims %dx%d", ErrCorrupt, w, h)
	}
	return w, h, quality, nil
}

// deltaEncode replaces each value with its difference from the previous
// value in the row, tightening the residual distribution for the coder. The
// first column predicts from the row above, or on the first row of a band of
// band rows (a power of two) from the band before's first row, so that of the
// bands above one only their first values are needed. len(plane) is a
// multiple of stride.
func deltaEncode(plane []uint8, stride, band int) {
	if stride <= 0 {
		return
	}
	// Bottom-up, so the row above is still unencoded when it predicts.
	for row := len(plane) - stride; row >= 0; row -= stride {
		var prev uint8
		if r := row / stride; r&(band-1) != 0 {
			prev = plane[row-stride]
		} else if r > 0 {
			prev = plane[row-band*stride]
		}
		r := plane[row : row+stride]
		for i, v := range r {
			r[i] = v - prev
			prev = v
		}
	}
}

// undoPrediction reverses deltaEncode(plane, stride, band) in place on the
// rows of plane that rows lists and no further right than column last; every
// other value stays a residual. Column 0's chain runs down the bands' first
// rows to the first listed row's band, then down every row to the last listed
// row; the other columns predict from their left neighbour, a
// running sum along each listed row. rows ascends and lists rows of a plane
// 1<<shift times as tall — luma rows, for a chroma plane — so it may name a
// row of this one more than once. A refinement bit extends a value, not its
// residual: ref's are folded into the values restored.
func undoPrediction(plane []uint8, stride int, rows []int32, shift uint, last, band int, ref refinement) {
	top, bottom := int(rows[0]>>shift)&^(band-1), int(rows[len(rows)-1]>>shift)
	for r := 1; r <= bottom; r++ {
		if r&(band-1) == 0 {
			plane[r*stride] += plane[(r-band)*stride]
		} else if r > top {
			plane[r*stride] += plane[(r-1)*stride]
		}
	}
	done := -1
	for _, r := range rows {
		at := int(r>>shift) * stride
		if at == done {
			continue
		}
		done = at
		runningSum(plane[at : at+last+1])
		if ref.planes > 0 {
			ref.fold(plane[at:at+last+1], at)
		}
	}
}

// runningSum replaces each value of row with the sum of the values up to it.
// It is kept out of line: inlined into undoPrediction's loop (Go 1.24) the
// accumulator is spilled to the stack and the loop runs at half the speed.
//
//go:noinline
func runningSum(row []uint8) {
	var acc uint8
	for i, v := range row {
		acc += v
		row[i] = acc
	}
}
