package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

func TestNewRejectsBadShape(t *testing.T) {
	for _, s := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := New(s[0], s[1], s[2]); err == nil {
			t.Errorf("New(%v) accepted bad shape", s)
		}
	}
}

func TestSetAt(t *testing.T) {
	tt, err := New(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	tt.Set(2, 3, 4, 1.5)
	if got := tt.At(2, 3, 4); got != 1.5 {
		t.Fatalf("At = %v", got)
	}
	if tt.Len() != 60 || tt.ByteSize() != 240 {
		t.Fatalf("Len=%d ByteSize=%d", tt.Len(), tt.ByteSize())
	}
}

func TestCloneEqual(t *testing.T) {
	a, _ := New(2, 2, 2)
	a.Set(1, 1, 1, 3.25)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(0, 0, 0, 7)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.At(0, 0, 0) != 0 {
		t.Fatal("clone shares storage")
	}
	c, _ := New(2, 2, 3)
	if a.Equal(c) || a.Equal(nil) {
		t.Fatal("Equal ignores shape or nil")
	}
}

func TestEqualComparesNaNByBits(t *testing.T) {
	a, _ := New(1, 1, 1)
	b, _ := New(1, 1, 1)
	a.Data[0] = float32(math.NaN())
	b.Data[0] = float32(math.NaN())
	if !a.Equal(b) {
		t.Fatal("identical NaN payloads not equal")
	}
}

func TestFromImageScalesAndTransposes(t *testing.T) {
	im := imaging.MustNew(2, 1)
	im.Set(0, 0, 255, 0, 51)
	im.Set(1, 0, 0, 255, 102)
	tt := FromImage(im)
	if tt.C != 3 || tt.H != 1 || tt.W != 2 {
		t.Fatalf("shape %dx%dx%d", tt.C, tt.H, tt.W)
	}
	if tt.At(0, 0, 0) != 1 || tt.At(1, 0, 1) != 1 {
		t.Fatal("channel values misplaced")
	}
	if got := tt.At(2, 0, 0); math.Abs(float64(got)-51.0/255) > 1e-6 {
		t.Fatalf("blue scaled to %v", got)
	}
}

func TestNormalize(t *testing.T) {
	tt, _ := New(2, 1, 2)
	copy(tt.Data, []float32{0.5, 1.0, 0.25, 0.75})
	if err := tt.Normalize([]float32{0.5, 0.25}, []float32{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 1, 0, 1}
	for i, w := range want {
		if tt.Data[i] != w {
			t.Fatalf("Data[%d] = %v, want %v", i, tt.Data[i], w)
		}
	}
}

func TestNormalizeValidates(t *testing.T) {
	tt, _ := New(3, 1, 1)
	if err := tt.Normalize([]float32{0, 0}, ImageNetStd); err == nil {
		t.Fatal("accepted short mean")
	}
	if err := tt.Normalize(ImageNetMean, []float32{1, 0, 1}); err == nil {
		t.Fatal("accepted zero std")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 17, H: 9, Detail: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tt := FromImage(im)
	if err := tt.Normalize(ImageNetMean, ImageNetStd); err != nil {
		t.Fatal(err)
	}
	data := tt.Marshal()
	if len(data) != MarshaledSize(3, 9, 17) {
		t.Fatalf("marshaled %d bytes, want %d", len(data), MarshaledSize(3, 9, 17))
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tt) {
		t.Fatal("round trip mismatch")
	}
}

func TestMarshaledSizeMatchesPaperInflation(t *testing.T) {
	// 224×224 RGB: ~150 KB as bytes, ~602 KB as float tensor (Finding #2).
	raw := 3 * 224 * 224
	enc := MarshaledSize(3, 224, 224)
	if enc < 4*raw || enc > 4*raw+64 {
		t.Fatalf("tensor wire size %d not ~4x of %d", enc, raw)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	tt, _ := New(1, 2, 2)
	data := tt.Marshal()
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:8],
		"bad magic":   append([]byte("XXXX"), data[4:]...),
		"bad version": func() []byte { d := append([]byte(nil), data...); d[4] = 9; return d }(),
		"truncated":   data[:len(data)-1],
		"padded":      append(append([]byte(nil), data...), 0),
		"zero shape": func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9], d[10], d[11] = 0, 0, 0, 0
			return d
		}(),
	}
	for name, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal accepted %s", name)
		}
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary tensor contents exactly.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(c8, h8, w8 uint8, vals []float32) bool {
		c := int(c8%3) + 1
		h := int(h8%8) + 1
		w := int(w8%8) + 1
		tt, err := New(c, h, w)
		if err != nil {
			return false
		}
		for i := range tt.Data {
			if len(vals) > 0 {
				tt.Data[i] = vals[i%len(vals)]
			}
		}
		got, err := Unmarshal(tt.Marshal())
		return err == nil && got.Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalize then denormalize recovers values within float32
// tolerance.
func TestNormalizeInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		im, err := imaging.Synthesize(imaging.SynthParams{W: 8, H: 8, Detail: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		orig := FromImage(im)
		tt := orig.Clone()
		if err := tt.Normalize(ImageNetMean, ImageNetStd); err != nil {
			return false
		}
		// Denormalize: v*std + mean.
		plane := tt.H * tt.W
		for c := 0; c < tt.C; c++ {
			for i := 0; i < plane; i++ {
				tt.Data[c*plane+i] = tt.Data[c*plane+i]*ImageNetStd[c] + ImageNetMean[c]
			}
		}
		for i := range tt.Data {
			if math.Abs(float64(tt.Data[i]-orig.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFromImageNormalizedMatchesUnfused holds the table kernel to FromImage
// then Normalize on every byte value in every channel, bit for bit, for the
// ImageNet statistics and for ones with a negative mean and a tiny std. The
// 16×48 image puts each of the 256 values in each channel at three positions
// (a different row and column each time), so a transposition cannot pass.
func TestFromImageNormalizedMatchesUnfused(t *testing.T) {
	im := imaging.MustNew(16, 48)
	for i := 0; i < 16*48; i++ {
		im.Set(i%16, i/16, uint8(i), uint8(i+85), uint8(255-i))
	}
	for _, st := range []struct{ mean, std []float32 }{
		{ImageNetMean, ImageNetStd},
		{[]float32{-0.3, 0, 1.7}, []float32{1e-3, 1, -4.5}},
	} {
		got, err := FromImageNormalized(im, st.mean, st.std)
		if err != nil {
			t.Fatal(err)
		}
		want := FromImage(im)
		if err := want.Normalize(st.mean, st.std); err != nil {
			t.Fatal(err)
		}
		if got.C != want.C || got.H != want.H || got.W != want.W {
			t.Fatalf("shape %dx%dx%d, want %dx%dx%d", got.C, got.H, got.W, want.C, want.H, want.W)
		}
		seen := [imaging.Channels][256]bool{}
		for c := 0; c < imaging.Channels; c++ {
			for y := 0; y < im.H; y++ {
				for x := 0; x < im.W; x++ {
					r, g, b := im.At(x, y)
					seen[c][[...]uint8{r, g, b}[c]] = true
					if g, w := got.At(c, y, x), want.At(c, y, x); math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("mean %v std %v: (%d,%d,%d) = %v (%#x), unfused %v (%#x)",
							st.mean, st.std, c, y, x, g, math.Float32bits(g), w, math.Float32bits(w))
					}
				}
			}
		}
		for c := range seen {
			for v, ok := range seen[c] {
				if !ok {
					t.Fatalf("test image never holds value %d in channel %d", v, c)
				}
			}
		}
	}
	if _, err := FromImageNormalized(im, ImageNetMean[:2], ImageNetStd); err == nil {
		t.Fatal("accepted short mean")
	}
	if _, err := FromImageNormalized(im, ImageNetMean, []float32{1, 0, 1}); err == nil {
		t.Fatal("accepted zero std")
	}
}

func BenchmarkFromImageNormalized128(b *testing.B) {
	im := imaging.MustNew(128, 128)
	for i := range im.Pix {
		im.Pix[i] = uint8(i * 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tt, err := FromImageNormalized(im, ImageNetMean, ImageNetStd)
		if err != nil {
			b.Fatal(err)
		}
		tt.Release()
	}
}
