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

const (
	sjpgMagic   = "SJPG"
	sjpgVersion = 2                 // version 1 stored its planes as DEFLATE blocks
	headerSize  = 4 + 1 + 1 + 4 + 4 // magic, version, quality, W, H
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

	n, cn := im.W*im.H, ((im.W+1)/2)*((im.H+1)/2)
	planes := bufpool.GetBytes(n + 2*cn)
	defer bufpool.PutBytes(planes)
	yPlane, cbPlane, crPlane := planes[:n], planes[n:n+cn], planes[n+cn:n+2*cn]
	fillPlanes(im, yShift, cShift, yPlane, cbPlane, crPlane)

	deltaEncode(yPlane, im.W)
	deltaEncode(cbPlane, (im.W+1)/2)
	deltaEncode(crPlane, (im.W+1)/2)

	var codes planeCodes
	out := make([]byte, headerSize+codes.plan(yPlane, cbPlane, crPlane))
	copy(out, sjpgMagic)
	out[4], out[5] = sjpgVersion, uint8(quality)
	binary.BigEndian.PutUint32(out[6:10], uint32(im.W))
	binary.BigEndian.PutUint32(out[10:14], uint32(im.H))
	codes.put(out[headerSize:], yPlane, cbPlane, crPlane)
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

// Decode reconstructs an image from an SJPG stream. The returned image is
// pool-backed: the caller owns it and should call Release when done to keep
// the decode path allocation-free at steady state (skipping Release is safe,
// merely slower).
func Decode(data []byte) (*Image, error) {
	p, err := decodePlanes(data)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.image()
}

// DecodeCropResize is CropResize(Decode(data), rect, w, h) without the full
// image in between: same pixels, same errors in the same order, but only the
// source pixels the resample reads are dequantized (ycc.cropResize). The
// result is pool-backed.
func DecodeCropResize(data []byte, rect Rect, w, h int) (*Image, error) {
	p, err := decodePlanes(data)
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
}

// newYCC cuts the planes of a w×h image from the front of buf, which the
// caller is about to inflate residuals into.
func newYCC(w, h int, yShift, cShift uint, buf []uint8) ycc {
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	return ycc{w: w, h: h, yShift: yShift, cShift: cShift,
		y: buf[:n], cb: buf[n : n+cn], cr: buf[n+cn : n+2*cn], buf: buf, residual: true}
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
	undoPrediction(p.y, p.w, rows, 0, last, refinement{packed, p.bits, 0})
	undoPrediction(p.cb, cw, rows, 1, last>>1, refinement{packed, p.bits, n})
	undoPrediction(p.cr, cw, rows, 1, last>>1, refinement{packed, p.bits, n + cn})
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

// decodePlanes is the first step of every SJPG decode: header, the checks that
// refuse a stream before any buffer is sized from it, the three planes.
func decodePlanes(data []byte) (ycc, error) {
	w, h, quality, err := parseHeader(data)
	if err != nil {
		return ycc{}, err
	}
	total := w*h + 2*((w+1)/2)*((h+1)/2)
	payload := data[headerSize:]
	if !canYield(len(payload), total) {
		return ycc{}, fmt.Errorf("%w: %d-byte payload cannot hold %dx%d", ErrCorrupt, len(payload), w, h)
	}
	yShift, cShift := shifts(quality)
	p := newYCC(w, h, yShift, cShift, bufpool.GetBytes(total))
	if err := inflateInto(payload, p.y, p.cb, p.cr); err != nil {
		p.release()
		return ycc{}, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	return p, nil
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
// image's tables and arithmetic.
func (p *ycc) convert(rows, cols []int32, out []uint8) {
	var yy1, c1 [256]int32
	p.dequantTables(&yy1, &c1)
	cw := (p.w + 1) / 2
	for _, r := range rows {
		yRow := p.y[int(r)*p.w : (int(r)+1)*p.w]
		cbRow, crRow := p.cb[int(r>>1)*cw:(int(r>>1)+1)*cw], p.cr[int(r>>1)*cw:(int(r>>1)+1)*cw]
		px := out[:len(cols)*Channels]
		out = out[len(px):]
		for _, c := range cols {
			cb1, cr1 := c1[cbRow[c>>1]], c1[crRow[c>>1]]
			l := yy1[yRow[c]]
			px[0], px[1], px[2] = clamp8(l+91881*cr1), clamp8(l-22554*cb1-46802*cr1), clamp8(l+116130*cb1)
			px = px[Channels:]
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
// value in the row (first column predicts from the row above), tightening
// the residual distribution for the coder. len(plane) is a multiple of stride.
func deltaEncode(plane []uint8, stride int) {
	if stride <= 0 {
		return
	}
	// Bottom-up, so the row above is still unencoded when it predicts.
	for row := len(plane) - stride; row >= 0; row -= stride {
		var prev uint8
		if row > 0 {
			prev = plane[row-stride]
		}
		r := plane[row : row+stride]
		for i, v := range r {
			r[i] = v - prev
			prev = v
		}
	}
}

// undoPrediction reverses deltaEncode in place on the rows of plane that rows
// lists and no further right than column last; every other value stays a
// residual. Column 0 predicts from the row above, so its chain runs from the
// top down to the last listed row; the other columns predict from their left
// neighbour, a running sum along each listed row. rows ascends and lists rows
// of a plane 1<<shift times as tall — luma rows, for a chroma plane — so it
// may name a row of this one more than once. A refinement bit extends a
// value, not its residual: ref's are folded into the values restored.
func undoPrediction(plane []uint8, stride int, rows []int32, shift uint, last int, ref refinement) {
	bottom := int(rows[len(rows)-1]>>shift) * stride
	for i := stride; i <= bottom; i += stride {
		plane[i] += plane[i-stride]
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
