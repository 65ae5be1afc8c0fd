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

// valid reports whether the rectangle has positive area.
func (r Rect) valid() bool { return r.W > 0 && r.H > 0 }

// within reports whether the rectangle lies fully inside a w×h image.
func (r Rect) within(w, h int) bool {
	// Compared as differences: X+W may not fit an int.
	return r.valid() && r.X >= 0 && r.Y >= 0 && r.W <= w && r.H <= h && r.X <= w-r.W && r.Y <= h-r.H
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

// checkCropResize validates a crop of a srcW×srcH image resized to w×h.
func checkCropResize(rect Rect, srcW, srcH, w, h int) error {
	if !rect.within(srcW, srcH) {
		return fmt.Errorf("%w: crop %+v of %dx%d", errBadDimensions, rect, srcW, srcH)
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("%w: resize to %dx%d", errBadDimensions, w, h)
	}
	return nil
}

// axis is one dimension of a bilinear resample in integers: output index i
// blends source samples lo[i] and hi[i] with weights weightOne−f[i] and f[i].
type axis struct {
	lo, hi, f []int32
}

// weightBits is the precision of a tap's weight: a fraction of weightOne. At
// an output side that is a power of two up to 1<<(weightBits−1) every
// weight is exact.
const (
	weightBits = 11
	weightOne  = 1 << weightBits
)

// sampler is the pooled scratch of one resample: a tap table per axis and
// the distinct source rows the row taps name.
type sampler struct {
	x, y axis
	rows []int32
}

var samplerPool = sync.Pool{New: func() any { return new(sampler) }}

// fill computes the taps that resample the n source samples from origin on
// to out, sampling at pixel centres (align-corners=false) and clamping at
// both edges. Output i samples source position ((2i+1)·n − out) / 2out,
// clamped at 0, and its weight is that position's fraction rounded to
// 1/weightOne: integers of (i, n, out) alone, the same on every machine.
func (a *axis) fill(origin, n, out int) {
	if cap(a.lo) < out {
		a.lo, a.hi, a.f = make([]int32, out), make([]int32, out), make([]int32, out)
	}
	a.lo, a.hi, a.f = a.lo[:out], a.hi[:out], a.f[:out]
	den := 2 * out
	for i := range a.lo {
		num := max((2*i+1)*n-out, 0)
		i0 := num / den
		a.lo[i], a.hi[i] = int32(origin+i0), int32(origin+min(i0+1, n-1))
		a.f[i] = int32((num%den<<weightBits + out) / den)
	}
}

// distinct returns the source samples the taps name, once each and in
// increasing order, in idx's storage. Taps never step backwards past the
// largest sample named so far — lo does not decrease and hi is lo or lo+1 —
// so a sample is new exactly when it is larger than that one.
func (a *axis) distinct(idx []int32) []int32 {
	idx = idx[:0]
	for i, lo := range a.lo {
		for _, v := range [2]int32{lo, a.hi[i]} {
			if len(idx) == 0 || v > idx[len(idx)-1] {
				idx = append(idx, v)
			}
		}
	}
	return idx
}

// lerp2 interpolates four samples — a, b along x in the top row, c, d in the
// bottom — with weights fx and fy, and rounds half up. The sum is a convex
// combination scaled by weightOne², so the shift floors it.
func lerp2(a, b, c, d, fx, fy int32) int32 {
	top := a<<weightBits + (b-a)*fx
	bot := c<<weightBits + (d-c)*fx
	return (top<<weightBits + (bot-top)*fy + 1<<(2*weightBits-1)) >> (2 * weightBits)
}
