package imaging

import (
	"fmt"
	"sync"
)

// Rect is an axis-aligned pixel rectangle with inclusive origin and
// exclusive extent, i.e. it covers x in [X, X+W) and y in [Y, Y+H).
type Rect struct {
	X, Y, W, H int
}

// Valid reports whether the rectangle has positive area.
func (r Rect) Valid() bool { return r.W > 0 && r.H > 0 }

// Within reports whether the rectangle lies fully inside a w×h image.
func (r Rect) Within(w, h int) bool {
	// Compared as differences: X+W may not fit an int.
	return r.Valid() && r.X >= 0 && r.Y >= 0 && r.W <= w && r.H <= h && r.X <= w-r.W && r.Y <= h-r.H
}

// Crop returns a copy of the sub-image covered by rect.
func Crop(im *Image, rect Rect) (*Image, error) {
	if !rect.Within(im.W, im.H) {
		return nil, fmt.Errorf("%w: crop %+v of %dx%d", ErrBadDimensions, rect, im.W, im.H)
	}
	out := MustNew(rect.W, rect.H)
	for y := 0; y < rect.H; y++ {
		srcOff := im.offset(rect.X, rect.Y+y)
		dstOff := out.offset(0, y)
		copy(out.Pix[dstOff:dstOff+rect.W*Channels], im.Pix[srcOff:srcOff+rect.W*Channels])
	}
	return out, nil
}

// Resize scales the image to w×h using bilinear interpolation. It matches
// the sampling used by common DL preprocessing (align-corners=false).
func Resize(im *Image, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: resize to %dx%d", ErrBadDimensions, w, h)
	}
	out := MustNew(w, h)
	cropResizeInto(im, Rect{W: im.W, H: im.H}, out)
	return out, nil
}

// FlipHorizontal mirrors the image around its vertical axis, returning a new
// image.
func FlipHorizontal(im *Image) *Image {
	out := MustNew(im.W, im.H)
	copy(out.Pix, im.Pix)
	FlipHorizontalInPlace(out)
	return out
}

// FlipHorizontalInPlace mirrors the image around its vertical axis without
// allocating, swapping pixel triples within each row. It produces exactly the
// pixels FlipHorizontal would.
func FlipHorizontalInPlace(im *Image) {
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W*Channels : (y+1)*im.W*Channels]
		for l, r := 0, im.W-1; l < r; l, r = l+1, r-1 {
			lo, ro := l*Channels, r*Channels
			row[lo], row[ro] = row[ro], row[lo]
			row[lo+1], row[ro+1] = row[ro+1], row[lo+1]
			row[lo+2], row[ro+2] = row[ro+2], row[lo+2]
		}
	}
}

// CropResize crops rect and resizes the result to w×h in one call; it is the
// kernel of RandomResizedCrop. The result is pool-backed (Release when done).
func CropResize(im *Image, rect Rect, w, h int) (*Image, error) {
	if err := checkCropResize(rect, im.W, im.H, w, h); err != nil {
		return nil, err
	}
	out, err := NewPooled(w, h)
	if err != nil {
		return nil, err
	}
	cropResizeInto(im, rect, out)
	return out, nil
}

// checkCropResize validates a crop of a srcW×srcH image resized to w×h.
func checkCropResize(rect Rect, srcW, srcH, w, h int) error {
	if !rect.Within(srcW, srcH) {
		return fmt.Errorf("%w: crop %+v of %dx%d", ErrBadDimensions, rect, srcW, srcH)
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("%w: resize to %dx%d", ErrBadDimensions, w, h)
	}
	return nil
}

// cropResizeInto samples rect out of im directly into dst, fusing the crop
// copy and the bilinear resize into one pass: no intermediate crop image is
// ever materialized. The arithmetic is identical to Resize run over
// Crop(im, rect), so outputs are bit-for-bit the same.
func cropResizeInto(im *Image, rect Rect, dst *Image) {
	origin := im.Pix[im.offset(rect.X, rect.Y):]
	if dst.W == rect.W && dst.H == rect.H {
		// Pure crop: row-wise copy, exactly what Crop does.
		n := rect.W * Channels
		for y := 0; y < rect.H; y++ {
			copy(dst.Pix[y*n:(y+1)*n], origin[y*im.W*Channels:])
		}
		return
	}
	s := samplerPool.Get().(*sampler)
	s.x.fill(rect.W, dst.W)
	s.y.fill(rect.H, dst.H)
	blend(origin, im.W, &s.x, &s.y, dst)
	samplerPool.Put(s)
}

// axis is one dimension of a bilinear resample: output index i blends source
// samples lo[i] and hi[i] with weights 1-f[i] and f[i].
type axis struct {
	lo, hi []int32
	f      []float64
}

// sampler is the pooled scratch of one resample: a tap table per axis and,
// for the fused decode (ycc.cropResize), the distinct source columns and rows
// those taps name.
type sampler struct {
	x, y       axis
	cols, rows []int32
}

var samplerPool = sync.Pool{New: func() any { return new(sampler) }}

// fill computes the taps that resample n source samples to out, sampling at
// pixel centres (align-corners=false) and clamping at both edges.
func (a *axis) fill(n, out int) {
	if cap(a.lo) < out {
		a.lo, a.hi, a.f = make([]int32, out), make([]int32, out), make([]float64, out)
	}
	a.lo, a.hi, a.f = a.lo[:out], a.hi[:out], a.f[:out]
	ratio := float64(n) / float64(out)
	for i := range a.lo {
		src := (float64(i)+0.5)*ratio - 0.5
		if src < 0 {
			src = 0
		}
		i0 := int(src)
		i1 := i0 + 1
		if i1 >= n {
			i1 = n - 1
		}
		a.lo[i], a.hi[i], a.f[i] = int32(i0), int32(i1), src-float64(i0)
	}
}

// compact rewrites the taps to index the distinct source samples they name
// and returns those samples, offset by origin, in increasing order (in idx's
// storage when it holds two per tap). Taps never step backwards by more than
// one sample — lo does not decrease and hi is lo or lo+1 — so a sample
// already listed is one of the last two.
func (a *axis) compact(origin int, idx []int32) []int32 {
	if cap(idx) < 2*len(a.lo) {
		idx = make([]int32, 0, 2*len(a.lo))
	}
	idx = idx[:0]
	place := func(v int32) int32 {
		v += int32(origin)
		n := int32(len(idx))
		for back := int32(1); back <= 2 && back <= n; back++ {
			if idx[n-back] == v {
				return n - back
			}
		}
		idx = append(idx, v)
		return n
	}
	for i := range a.lo {
		a.lo[i] = place(a.lo[i])
		a.hi[i] = place(a.hi[i])
	}
	return idx
}

// blend is the one bilinear kernel: it fills dst from the pixels of src
// (interleaved RGB, rows stride pixels apart) that the taps name.
func blend(src []uint8, stride int, x, y *axis, dst *Image) {
	n := dst.W * Channels
	xlo, xhi := x.lo[:len(x.f)], x.hi[:len(x.f)]
	for j := 0; j < dst.H; j++ {
		top := src[int(y.lo[j])*stride*Channels:]
		bot := src[int(y.hi[j])*stride*Channels:]
		fy := y.f[j]
		out := dst.Pix[j*n : (j+1)*n]
		for i, fx := range x.f {
			o0, o1 := int(xlo[i])*Channels, int(xhi[i])*Channels
			t0, t1 := top[o0:o0+Channels:o0+Channels], top[o1:o1+Channels:o1+Channels]
			b0, b1 := bot[o0:o0+Channels:o0+Channels], bot[o1:o1+Channels:o1+Channels]
			px := out[i*Channels : i*Channels+Channels : i*Channels+Channels]
			px[0] = bilerp(t0[0], t1[0], b0[0], b1[0], fx, fy)
			px[1] = bilerp(t0[1], t1[1], b0[1], b1[1], fx, fy)
			px[2] = bilerp(t0[2], t1[2], b0[2], b1[2], fx, fy)
		}
	}
}

// bilerp interpolates one channel along x in both tapped rows, then along y,
// in float64, and rounds half up.
func bilerp(t0, t1, b0, b1 uint8, fx, fy float64) uint8 {
	top := float64(t0)*(1-fx) + float64(t1)*fx
	bot := float64(b0)*(1-fx) + float64(b1)*fx
	v := top*(1-fy) + bot*fy
	return uint8(v + 0.5)
}
