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

func newLattice(w, h int, rng *rand.Rand) *lattice {
	l := &lattice{w: w, h: h, v: make([]float64, w*h)}
	for i := range l.v {
		l.v[i] = rng.Float64()
	}
	return l
}

// sample evaluates the lattice at normalized coordinates (u, v) in [0, 1].
func (l *lattice) sample(u, v float64) float64 {
	x := u * float64(l.w-1)
	y := v * float64(l.h-1)
	x0, y0 := int(x), int(y)
	x1, y1 := x0+1, y0+1
	if x1 >= l.w {
		x1 = l.w - 1
	}
	if y1 >= l.h {
		y1 = l.h - 1
	}
	fx, fy := x-float64(x0), y-float64(y0)
	top := l.v[y0*l.w+x0]*(1-fx) + l.v[y0*l.w+x1]*fx
	bot := l.v[y1*l.w+x0]*(1-fx) + l.v[y1*l.w+x1]*fx
	return top*(1-fy) + bot*fy
}

// Synthesize renders a deterministic synthetic photo. The image combines a
// smooth multi-octave luminance field, a global color gradient, and
// per-pixel texture noise scaled by Detail.
func Synthesize(p SynthParams) (*Image, error) {
	im, err := New(p.W, p.H)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, p.Seed^0x9e3779b97f4a7c15))
	detail := p.Detail
	if detail < 0 {
		detail = 0
	}
	if detail > 1 {
		detail = 1
	}

	// Three octaves of band-limited structure.
	oct1 := newLattice(4, 4, rng)
	oct2 := newLattice(12, 12, rng)
	oct3 := newLattice(37, 37, rng)

	// Random color axes for the gradient.
	baseR := 0.3 + 0.5*rng.Float64()
	baseG := 0.3 + 0.5*rng.Float64()
	baseB := 0.3 + 0.5*rng.Float64()
	angle := rng.Float64() * 2 * math.Pi
	gx, gy := math.Cos(angle), math.Sin(angle)

	noiseAmp := 90.0 * detail // peak-to-peak texture amplitude in levels

	for y := 0; y < p.H; y++ {
		v := float64(y) / float64(max(p.H-1, 1))
		for x := 0; x < p.W; x++ {
			u := float64(x) / float64(max(p.W-1, 1))
			lum := 0.55*oct1.sample(u, v) + 0.3*oct2.sample(u, v) + 0.15*oct3.sample(u, v)
			grad := 0.5 + 0.5*(gx*(u-0.5)+gy*(v-0.5))
			n := (rng.Float64() - 0.5) * noiseAmp
			r := clamp255(255*(baseR*lum+0.25*grad) + n)
			g := clamp255(255*(baseG*lum+0.25*(1-grad)) + n*0.8)
			b := clamp255(255*(baseB*lum+0.20*grad) + n*0.9)
			im.Set(x, y, r, g, b)
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
