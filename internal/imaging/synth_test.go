package imaging

import (
	"math"
	"math/rand/v2"
	"testing"
)

// synthesizeRef is the per-pixel renderer Synthesize replaced: it evaluates
// every octave's bilinear sample, the gradient and the noise draw from
// scratch at each pixel and stores through setPixel. Only the detail clamp
// differs from it as it stood, the NaN case Synthesize also fixes. The
// hoisted renderer must match it bit for bit.
func synthesizeRef(p SynthParams) (*Image, error) {
	im, err := newImage(p.W, p.H)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, p.Seed^0x9e3779b97f4a7c15))
	detail := p.Detail
	if !(detail > 0) {
		detail = 0
	}
	if detail > 1 {
		detail = 1
	}

	oct1 := newLattice(4, 4, rng)
	oct2 := newLattice(12, 12, rng)
	oct3 := newLattice(37, 37, rng)

	baseR := 0.3 + 0.5*rng.Float64()
	baseG := 0.3 + 0.5*rng.Float64()
	baseB := 0.3 + 0.5*rng.Float64()
	angle := rng.Float64() * 2 * math.Pi
	gx, gy := math.Cos(angle), math.Sin(angle)

	noiseAmp := 90.0 * detail

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
			setPixel(im, x, y, r, g, b)
		}
	}
	return im, nil
}

// sample evaluates the lattice at normalized coordinates (u, v) in [0, 1].
func (l lattice) sample(u, v float64) float64 {
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

// setPixel stores the RGB triple at (x, y).
func setPixel(im *Image, x, y int, r, g, b uint8) {
	o := im.offset(x, y)
	im.Pix[o], im.Pix[o+1], im.Pix[o+2] = r, g, b
}

// matchesRef renders p both ways and fails unless every byte agrees.
func matchesRef(t *testing.T, p SynthParams) {
	t.Helper()
	got, err := Synthesize(p)
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	defer got.Release()
	want, err := synthesizeRef(p)
	if err != nil {
		t.Fatalf("%+v: reference: %v", p, err)
	}
	if !got.Equal(want) {
		d, _ := maxAbsDiff(got, want)
		t.Fatalf("%+v: pixels differ from the reference renderer (max |Δ| %d)", p, d)
	}
}

// TestSynthesizeMatchesReference holds the hoisted renderer to the per-pixel
// one over seeded random parameters and the edges of the hoisting: single
// rows and columns, images narrower or shorter than the 37-cell lattice (so
// several columns or rows share a cell, or one lattice row is skipped), and
// every out-of-range Detail.
func TestSynthesizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 0x5157))
	for range 40 {
		matchesRef(t, SynthParams{W: 1 + rng.IntN(300), H: 1 + rng.IntN(300), Detail: rng.Float64(), Seed: rng.Uint64()})
	}
	for _, dim := range [][2]int{{1, 1}, {1, 57}, {57, 1}, {2, 2}, {3, 40}, {36, 5}, {37, 37}, {38, 11}, {12, 4}, {640, 3}} {
		matchesRef(t, SynthParams{W: dim[0], H: dim[1], Detail: 0.5, Seed: uint64(dim[0]*1000 + dim[1])})
	}
	for _, d := range []float64{-0.25, math.Copysign(0, -1), 0, 1, 1.5, math.Inf(1), math.Inf(-1)} {
		matchesRef(t, SynthParams{W: 33, H: 21, Detail: d, Seed: 7})
	}
}

// TestSynthesizeNaNDetail: a NaN Detail renders the Detail-0 image. Before
// the clamp caught it, every channel came out of clamp255 as uint8(NaN),
// which each platform defines its own way.
func TestSynthesizeNaNDetail(t *testing.T) {
	nan, err := Synthesize(SynthParams{W: 29, H: 17, Detail: math.NaN(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Synthesize(SynthParams{W: 29, H: 17, Detail: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !nan.Equal(zero) {
		t.Fatal("a NaN Detail does not render the Detail-0 image")
	}
}

// FuzzSynthesize: for any geometry up to 512×512, detail and seed, the
// hoisted renderer and the per-pixel one agree bit for bit.
func FuzzSynthesize(f *testing.F) {
	f.Add(uint16(640), uint16(480), 0.5, uint64(9))
	f.Add(uint16(1), uint16(1), 0.0, uint64(1))
	f.Add(uint16(37), uint16(3), 1.0, uint64(2))
	f.Add(uint16(5), uint16(200), math.Inf(1), uint64(3))
	f.Add(uint16(90), uint16(60), math.NaN(), uint64(4))
	f.Fuzz(func(t *testing.T, w, h uint16, detail float64, seed uint64) {
		p := SynthParams{W: int(w%512) + 1, H: int(h%512) + 1, Detail: detail, Seed: seed}
		matchesRef(t, p)
	})
}
