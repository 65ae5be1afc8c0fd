package imaging

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadDims(t *testing.T) {
	for _, c := range []struct{ w, h int }{{0, 1}, {1, 0}, {-3, 5}, {0, 0}} {
		if _, err := newImage(c.w, c.h); err == nil {
			t.Errorf("New(%d, %d) accepted bad dims", c.w, c.h)
		}
	}
}

func TestFromPixValidatesLength(t *testing.T) {
	if _, err := FromPix(2, 2, make([]uint8, 11)); err == nil {
		t.Fatal("FromPix accepted short buffer")
	}
	im, err := FromPix(2, 2, make([]uint8, 12))
	if err != nil {
		t.Fatal(err)
	}
	if im.W*im.H != 4 || im.ByteSize() != 12 {
		t.Fatalf("pixels=%d bytes=%d", im.W*im.H, im.ByteSize())
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	im := MustNew(3, 2)
	setPixel(im, 2, 1, 10, 20, 30)
	r, g, b := im.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("At = (%d,%d,%d)", r, g, b)
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := MustNew(2, 2)
	b := MustNew(2, 2)
	if !a.Equal(b) {
		t.Fatal("identical zero images not equal")
	}
	setPixel(b, 1, 1, 0, 0, 5)
	if a.Equal(b) {
		t.Fatal("different images reported equal")
	}
	d, err := maxAbsDiff(a, b)
	if err != nil || d != 5 {
		t.Fatalf("MaxAbsDiff = %d, %v", d, err)
	}
	if _, err := maxAbsDiff(a, MustNew(3, 3)); err == nil {
		t.Fatal("MaxAbsDiff accepted mismatched sizes")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) = true")
	}
}

func TestCropBasics(t *testing.T) {
	im := MustNew(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			setPixel(im, x, y, uint8(x), uint8(y), 0)
		}
	}
	out, err := Crop(im, Rect{X: 1, Y: 2, W: 2, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 2 || out.H != 2 {
		t.Fatalf("crop dims %dx%d", out.W, out.H)
	}
	r, g, _ := out.At(0, 0)
	if r != 1 || g != 2 {
		t.Fatalf("crop origin pixel = (%d,%d)", r, g)
	}
}

func TestCropRejectsOutOfBounds(t *testing.T) {
	im := MustNew(4, 4)
	for _, rect := range []Rect{
		{X: -1, Y: 0, W: 2, H: 2},
		{X: 3, Y: 3, W: 2, H: 2},
		{X: 0, Y: 0, W: 0, H: 2},
		{X: 0, Y: 0, W: 5, H: 5},
	} {
		if _, err := Crop(im, rect); err == nil {
			t.Errorf("Crop accepted %+v", rect)
		}
	}
}

func TestResizeDims(t *testing.T) {
	im, err := Synthesize(SynthParams{W: 37, H: 23, Detail: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Resize(im, 224, 224)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 224 || out.H != 224 {
		t.Fatalf("resize dims %dx%d", out.W, out.H)
	}
	if _, err := Resize(im, 0, 10); err == nil {
		t.Fatal("Resize accepted zero width")
	}
}

func TestResizeIdentity(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 16, H: 12, Detail: 0.3, Seed: 2})
	out, err := Resize(im, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(im) {
		t.Fatal("same-size resize is not identity")
	}
	setPixel(out, 0, 0, 99, 99, 99)
	if r, _, _ := im.At(0, 0); r == 99 {
		t.Fatal("identity resize aliases source pixels")
	}
}

func TestResizeConstantImageStaysConstant(t *testing.T) {
	im := MustNew(10, 10)
	for i := range im.Pix {
		im.Pix[i] = 77
	}
	out, err := Resize(im, 23, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Pix {
		if v != 77 {
			t.Fatalf("pixel byte %d = %d after resize of constant image", i, v)
		}
	}
}

// TestResizeKnownValues pins bilinear interpolation against hand-computed
// references (align-corners=false sampling).
func TestResizeKnownValues(t *testing.T) {
	// 2x1 image, R channel = [0, 100]; upscale to 4x1.
	im := MustNew(2, 1)
	setPixel(im, 0, 0, 0, 0, 0)
	setPixel(im, 1, 0, 100, 0, 0)
	out, err := Resize(im, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sample centers at src coords -0.25 (clamped 0), 0.25, 0.75, 1.25
	// (clamped to edge pair) → values 0, 25, 75, 100.
	want := []uint8{0, 25, 75, 100}
	for x, w := range want {
		if r, _, _ := out.At(x, 0); r != w {
			t.Fatalf("pixel %d = %d, want %d", x, r, w)
		}
	}

	// Downscale 2x2 → 1x1 averages all four pixels.
	sq := MustNew(2, 2)
	setPixel(sq, 0, 0, 10, 0, 0)
	setPixel(sq, 1, 0, 20, 0, 0)
	setPixel(sq, 0, 1, 30, 0, 0)
	setPixel(sq, 1, 1, 40, 0, 0)
	one, err := Resize(sq, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r, _, _ := one.At(0, 0); r != 25 {
		t.Fatalf("2x2→1x1 = %d, want 25", r)
	}
}

func TestFlipHorizontalInvolution(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 31, H: 17, Detail: 0.7, Seed: 3})
	twice := FlipHorizontal(FlipHorizontal(im))
	if !twice.Equal(im) {
		t.Fatal("double flip is not identity")
	}
}

func TestFlipHorizontalMovesPixels(t *testing.T) {
	im := MustNew(3, 1)
	setPixel(im, 0, 0, 1, 0, 0)
	setPixel(im, 2, 0, 2, 0, 0)
	f := FlipHorizontal(im)
	if r, _, _ := f.At(0, 0); r != 2 {
		t.Fatalf("flip left pixel = %d", r)
	}
	if r, _, _ := f.At(2, 0); r != 1 {
		t.Fatalf("flip right pixel = %d", r)
	}
}

func TestCropResize(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 100, H: 80, Detail: 0.4, Seed: 4})
	out, err := CropResize(im, Rect{X: 10, Y: 10, W: 50, H: 40}, 224, 224)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 224 || out.H != 224 {
		t.Fatalf("CropResize dims %dx%d", out.W, out.H)
	}
	if _, err := CropResize(im, Rect{X: 90, Y: 0, W: 50, H: 40}, 10, 10); err == nil {
		t.Fatal("CropResize accepted out-of-bounds rect")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(SynthParams{W: 40, H: 30, Detail: 0.6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Synthesize(SynthParams{W: 40, H: 30, Detail: 0.6, Seed: 42})
	if !a.Equal(b) {
		t.Fatal("same seed produced different images")
	}
	c, _ := Synthesize(SynthParams{W: 40, H: 30, Detail: 0.6, Seed: 43})
	if a.Equal(c) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestSynthesizeClampsDetail(t *testing.T) {
	if _, err := Synthesize(SynthParams{W: 8, H: 8, Detail: -5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(SynthParams{W: 8, H: 8, Detail: 9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(SynthParams{W: 0, H: 8, Seed: 1}); err == nil {
		t.Fatal("Synthesize accepted zero width")
	}
}

func TestCodecRoundTripDims(t *testing.T) {
	for _, dims := range []struct{ w, h int }{{1, 1}, {2, 3}, {7, 5}, {64, 48}, {101, 33}} {
		im, err := Synthesize(SynthParams{W: dims.w, H: dims.h, Detail: 0.3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode(im, 90)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %dx%d: %v", dims.w, dims.h, err)
		}
		if got.W != im.W || got.H != im.H {
			t.Fatalf("round trip dims %dx%d -> %dx%d", im.W, im.H, got.W, got.H)
		}
	}
}

func TestCodecLossBounded(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 96, H: 64, Detail: 0.1, Seed: 11})
	data, err := Encode(im, 90)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := maxAbsDiff(im, got)
	if err != nil {
		t.Fatal(err)
	}
	// Quality 90: no luma quantization, 2x chroma subsample on a smooth
	// image; loss should be modest.
	if d > 48 {
		t.Fatalf("max abs diff = %d at quality 90", d)
	}
}

func TestCodecQualityTradesSizeForLoss(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 128, H: 96, Detail: 0.5, Seed: 13})
	hi, err := Encode(im, 95)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Encode(im, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(lo) >= len(hi) {
		t.Fatalf("low quality (%dB) not smaller than high quality (%dB)", len(lo), len(hi))
	}
}

func TestCodecDetailGrowsSize(t *testing.T) {
	smooth, _ := Synthesize(SynthParams{W: 128, H: 96, Detail: 0.0, Seed: 17})
	noisy, _ := Synthesize(SynthParams{W: 128, H: 96, Detail: 1.0, Seed: 17})
	a, err := EncodeDefault(smooth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeDefault(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= len(a) {
		t.Fatalf("noisy image (%dB) not larger than smooth (%dB)", len(b), len(a))
	}
}

func TestCodecCompresses(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 256, H: 192, Detail: 0.2, Seed: 19})
	data, err := EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= im.ByteSize()/2 {
		t.Fatalf("encoded %dB of %dB raw; expected >2x compression", len(data), im.ByteSize())
	}
}

func TestCodecDeterministic(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 50, H: 40, Detail: 0.5, Seed: 21})
	a, _ := EncodeDefault(im)
	b, _ := EncodeDefault(im)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDecodeDims(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 33, H: 44, Detail: 0.2, Seed: 23})
	data, _ := EncodeDefault(im)
	w, h, err := DecodeDims(data)
	if err != nil || w != 33 || h != 44 {
		t.Fatalf("DecodeDims = %d,%d,%v", w, h, err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	im, _ := Synthesize(SynthParams{W: 20, H: 20, Detail: 0.2, Seed: 25})
	data, _ := EncodeDefault(im)

	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:5],
		"bad magic":   append([]byte("XJPG"), data[4:]...),
		"bad version": func() []byte { d := append([]byte(nil), data...); d[4] = 99; return d }(),
		"truncated":   data[:len(data)-4],
		"zero dims": func() []byte {
			d := append([]byte(nil), data...)
			d[6], d[7], d[8], d[9] = 0, 0, 0, 0
			return d
		}(),
		"garbage body": append(append([]byte(nil), data[:headerSize]...), bytes.Repeat([]byte{0xFF}, 32)...),
	}
	for name, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode accepted %s input", name)
		}
	}
}

func TestEncodeRejectsBadQuality(t *testing.T) {
	im := MustNew(4, 4)
	for _, q := range []int{0, -1, 101} {
		if _, err := Encode(im, q); err == nil {
			t.Errorf("Encode accepted quality %d", q)
		}
	}
}

// Property: encode/decode round trip preserves dimensions and never errors
// for arbitrary small geometry and detail.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(w8, h8 uint8, detail uint8, seed uint64) bool {
		w := int(w8%60) + 1
		h := int(h8%60) + 1
		im, err := Synthesize(SynthParams{W: w, H: h, Detail: float64(detail) / 255, Seed: seed})
		if err != nil {
			return false
		}
		data, err := Encode(im, 70)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.W == w && got.H == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: flip is an involution for arbitrary synthesized images.
func TestFlipInvolutionProperty(t *testing.T) {
	f := func(w8, h8 uint8, seed uint64) bool {
		w := int(w8%40) + 1
		h := int(h8%40) + 1
		im, err := Synthesize(SynthParams{W: w, H: h, Detail: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		return FlipHorizontal(FlipHorizontal(im)).Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// clone returns a deep copy of im.
func clone(im *Image) *Image {
	return &Image{W: im.W, H: im.H, Pix: append([]uint8(nil), im.Pix...)}
}

// maxAbsDiff returns the largest per-channel absolute difference between two
// same-sized images, the bound the lossy-codec tests hold.
func maxAbsDiff(a, b *Image) (int, error) {
	if b == nil || a.W != b.W || a.H != b.H {
		return 0, errBadDimensions
	}
	most := 0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		most = max(most, d)
	}
	return most, nil
}

// Crop and Resize are the unfused reference kernels the fused crop-resize
// paths are tested against; no product code calls them.

// Crop returns a copy of the sub-image covered by rect.
func Crop(im *Image, rect Rect) (*Image, error) {
	if !rect.within(im.W, im.H) {
		return nil, fmt.Errorf("%w: crop %+v of %dx%d", errBadDimensions, rect, im.W, im.H)
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
		return nil, fmt.Errorf("%w: resize to %dx%d", errBadDimensions, w, h)
	}
	out := MustNew(w, h)
	cropResizeInto(im, Rect{W: im.W, H: im.H}, out)
	return out, nil
}

// FromPix wraps an existing pixel buffer. The buffer length must equal
// w*h*3. Only this package's tests build images this way.
func FromPix(w, h int, pix []uint8) (*Image, error) {
	if w <= 0 || h <= 0 || len(pix) != w*h*Channels {
		return nil, fmt.Errorf("%w: %dx%d with %d bytes", errBadDimensions, w, h, len(pix))
	}
	return &Image{W: w, H: h, Pix: pix}, nil
}
