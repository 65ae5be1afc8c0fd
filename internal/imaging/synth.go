package imaging

import (
	"math"
	"math/rand/v2"
)

// SynthParams controls the synthetic photo generator. Detail sets the
// amplitude of high-frequency texture in [0, 1]: near 0 produces smooth,
// highly compressible images (small "JPEG"s); near 1 produces noisy ones
// that compress poorly (large "JPEG"s), mimicking the raw-size spread of
// real photo datasets.
type SynthParams struct {
	W, H   int
	Detail float64
	Seed   uint64
}

// lattice is a coarse grid of random values upsampled bilinearly to produce
// band-limited "photo-like" structure.
type lattice struct {
	w, h int
	v    []float64
}

func newLattice(w, h int, rng *rand.Rand) lattice {
	l := lattice{w: w, h: h, v: make([]float64, w*h)}
	for i := range l.v {
		l.v[i] = rng.Float64()
	}
	return l
}

// column is where an image column samples a lattice: between lattice columns
// x0 and x1, weighted wx0 = 1-fx and wx1 = fx.
type column struct {
	x0, x1   int
	wx0, wx1 float64
}

// octave is a lattice upsampled across an image's columns: top and bot are
// lattice rows y0 and y0+1 interpolated at every column.
type octave struct {
	lattice
	cols     []column
	top, bot []float64
	y0       int
	wy0, wy1 float64 // weights of top and bot at the current image row: 1-fy, fy
}

// row moves the octave to the image row at normalized height v, rebuilding
// top and bot when the row falls in another lattice row.
func (o *octave) row(v float64) {
	y := v * float64(o.h-1)
	y0 := int(y)
	y1 := min(y0+1, o.h-1)
	o.wy1 = y - float64(y0)
	o.wy0 = 1 - o.wy1
	if y0 == o.y0 {
		return
	}
	o.y0 = y0
	top, bot := o.v[y0*o.w:(y0+1)*o.w], o.v[y1*o.w:(y1+1)*o.w]
	for x, c := range o.cols {
		o.top[x] = float64(top[c.x0]*c.wx0) + top[c.x1]*c.wx1
		o.bot[x] = float64(bot[c.x0]*c.wx0) + bot[c.x1]*c.wx1
	}
}

// Synthesize renders a deterministic synthetic photo. The image combines a
// smooth multi-octave luminance field, a global color gradient, and
// per-pixel texture noise scaled by Detail; a NaN Detail counts as 0. The
// pixels come from the bufpool arena, so the caller may Release the image.
//
// Each pixel is, bit for bit, the sum of bilinear samples of the octaves at
// that pixel; what does not depend on the pixel is computed once a column,
// a row or a lattice row. The float64 conversions round the products that
// the per-pixel form leaves unfused where multiply-adds fuse (arm64).
func Synthesize(p SynthParams) (*Image, error) {
	im, err := newPooled(p.W, p.H)
	if err != nil {
		return nil, err
	}
	src := rand.NewPCG(p.Seed, p.Seed^0x9e3779b97f4a7c15)
	rng := rand.New(src)
	detail := min(p.Detail, 1)
	if !(detail > 0) { // NaN too
		detail = 0
	}

	// Three octaves of band-limited structure.
	var octs [3]octave
	cols := make([]column, 3*p.W)
	rows := make([]float64, 7*p.W)
	for i, n := range [3]int{4, 12, 37} {
		octs[i] = octave{lattice: newLattice(n, n, rng), cols: cols[i*p.W : (i+1)*p.W],
			top: rows[2*i*p.W : (2*i+1)*p.W], bot: rows[(2*i+1)*p.W : (2*i+2)*p.W], y0: -1}
	}

	// Random color axes for the gradient.
	baseR := 0.3 + 0.5*rng.Float64()
	baseG := 0.3 + 0.5*rng.Float64()
	baseB := 0.3 + 0.5*rng.Float64()
	angle := rng.Float64() * 2 * math.Pi
	gx, gy := math.Cos(angle), math.Sin(angle)

	us := rows[6*p.W:] // u-0.5 of each column
	for x := range us {
		u := float64(x) / float64(max(p.W-1, 1))
		us[x] = u - 0.5
		for i := range octs {
			o := &octs[i]
			xf := u * float64(o.w-1)
			x0 := int(xf)
			fx := xf - float64(x0)
			o.cols[x] = column{x0: x0, x1: min(x0+1, o.w-1), wx0: 1 - fx, wx1: fx}
		}
	}

	noiseAmp := 90.0 * detail // peak-to-peak texture amplitude in levels
	o1, o2, o3 := &octs[0], &octs[1], &octs[2]
	stride := p.W * Channels
	for y := 0; y < p.H; y++ {
		v := float64(y) / float64(max(p.H-1, 1))
		for i := range octs {
			octs[i].row(v)
		}
		gyv := float64(gy * (v - 0.5))
		t1, b1, wt1, wb1 := o1.top[:len(us)], o1.bot[:len(us)], o1.wy0, o1.wy1
		t2, b2, wt2, wb2 := o2.top[:len(us)], o2.bot[:len(us)], o2.wy0, o2.wy1
		t3, b3, wt3, wb3 := o3.top[:len(us)], o3.bot[:len(us)], o3.wy0, o3.wy1
		pix := im.Pix[y*stride : (y+1)*stride]
		for x, um := range us {
			s1 := t1[x]*wt1 + float64(b1[x]*wb1)
			s2 := t2[x]*wt2 + float64(b2[x]*wb2)
			s3 := t3[x]*wt3 + float64(b3[x]*wb3)
			lum := 0.55*s1 + float64(0.3*s2) + 0.15*s3
			grad := 0.5 + 0.5*(gx*um+gyv)
			// rand.Rand.Float64's value: 53 bits convert exactly signed or not.
			n := float64((float64(int64(src.Uint64()<<11>>11))/(1<<53) - 0.5) * noiseAmp)
			px := pix[x*Channels : x*Channels+Channels : x*Channels+Channels]
			px[0] = clamp255(255*(baseR*lum+float64(0.25*grad)) + n)
			px[1] = clamp255(255*(baseG*lum+float64(0.25*(1-grad))) + float64(n*0.8))
			px[2] = clamp255(255*(baseB*lum+float64(0.20*grad)) + float64(n*0.9))
		}
	}
	return im, nil
}

func clamp255(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}
