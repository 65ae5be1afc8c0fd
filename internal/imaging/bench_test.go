package imaging

import "testing"

func benchImage(b *testing.B, w, h int, detail float64) *Image {
	b.Helper()
	im, err := Synthesize(SynthParams{W: w, H: h, Detail: detail, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return im
}

func BenchmarkSynthesize640x480(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode640x480(b *testing.B) {
	im := benchImage(b, 640, 480, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeDefault(im); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode640x480(b *testing.B) {
	im := benchImage(b, 640, 480, 0.5)
	data, err := EncodeDefault(im)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkResizeTo224(b *testing.B) {
	im := benchImage(b, 640, 480, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resize(im, 224, 224); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlipHorizontal224(b *testing.B) {
	im := benchImage(b, 224, 224, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FlipHorizontal(im)
	}
}

func BenchmarkCrop(b *testing.B) {
	im := benchImage(b, 640, 480, 0.5)
	rect := Rect{X: 100, Y: 100, W: 300, H: 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Crop(im, rect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCropResize128 and BenchmarkDecodeCropResize128 price the unfused
// and the fused Decode→RandomResizedCrop prefix on a crop a little over twice
// the output size, the common case for a 128² training crop.
func BenchmarkCropResize128(b *testing.B) {
	im := benchImage(b, 480, 360, 0.5)
	rect := Rect{X: 90, Y: 30, W: 300, H: 290}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := CropResize(im, rect, 128, 128)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkDecodeCropResize128(b *testing.B) {
	data, err := EncodeDefault(benchImage(b, 480, 360, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	rect := Rect{X: 90, Y: 30, W: 300, H: 290}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeCropResize(data, rect, 128, 128)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}
