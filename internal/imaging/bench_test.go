package imaging

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

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

// benchSet is 48 SJPG streams sized the way the live benchmark sizes its
// inputs — each side uniform in 160–640, detail uniform in 0–1, default
// quality — with the size of their planes and one RandomResizedCrop-shaped
// rect apiece (8–100 % of the area, aspect 3/4–4/3). One stream is one sample
// of cpu_local or storage_alloff, so the two Set benchmarks price the kernels
// on the traffic they serve; BenchmarkDecode640x480 stays as the one-stream
// number older records quote. The image stays for the SJPR pair.
type benchStream struct {
	im     *Image
	data   []byte
	planes int
	rect   Rect
}

var benchSet = sync.OnceValues(func() ([]benchStream, error) {
	rng := rand.New(rand.NewPCG(0x5eed, 48))
	set := make([]benchStream, 48)
	for i := range set {
		w, h := 160+rng.IntN(481), 160+rng.IntN(481)
		im, err := Synthesize(SynthParams{W: w, H: h, Detail: rng.Float64(), Seed: rng.Uint64()})
		if err != nil {
			return nil, err
		}
		data, err := EncodeDefault(im)
		if err != nil {
			return nil, err
		}
		area := float64(w*h) * (0.08 + 0.92*rng.Float64())
		ratio := math.Exp((2*rng.Float64() - 1) * math.Log(4.0/3.0))
		rw := min(max(int(math.Sqrt(area*ratio)), 1), w)
		rh := min(max(int(math.Sqrt(area/ratio)), 1), h)
		set[i] = benchStream{im: im, data: data, planes: w*h + 2*((w+1)/2)*((h+1)/2),
			rect: Rect{X: rng.IntN(w - rw + 1), Y: rng.IntN(h - rh + 1), W: rw, H: rh}}
	}
	return set, nil
})

// benchSetFor returns the set and the mean size of its planes, what both Set
// benchmarks report throughput against.
func benchSetFor(b *testing.B) []benchStream {
	b.Helper()
	set, err := benchSet()
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, s := range set {
		total += s.planes
	}
	b.SetBytes(int64(total / len(set)))
	return set
}

func BenchmarkInflateSet(b *testing.B) {
	set := benchSetFor(b)
	dst := make([]byte, 640*640*3/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := set[i%len(set)]
		n, cn := s.im.W*s.im.H, (s.planes-s.im.W*s.im.H)/2
		if err := inflateInto(s.data[headerSize:], dst[:n], dst[n:n+cn], dst[n+cn:s.planes]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCropResizeSet(b *testing.B) {
	set := benchSetFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := set[i%len(set)]
		out, err := DecodeCropResize(s.data, s.rect, 128, 128)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// packSet is the cut-2 artifact of each benchSet stream: decoded and cropped
// to 128×128 at its fixed rect, the crop an offloaded sample ships packed.
var packSet = sync.OnceValues(func() ([]*Image, error) {
	set, err := benchSet()
	if err != nil {
		return nil, err
	}
	crops := make([]*Image, len(set))
	for i, s := range set {
		if crops[i], err = DecodeCropResize(s.data, s.rect, 128, 128); err != nil {
			return nil, err
		}
	}
	return crops, nil
})

// packSetFor returns the crops and their mean packed size, and reports
// throughput against their pixel bytes.
func packSetFor(b *testing.B) ([]*Image, float64) {
	b.Helper()
	crops, err := packSet()
	if err != nil {
		b.Fatal(err)
	}
	packed := 0
	for _, c := range crops {
		packed += PackedSize(c)
	}
	b.SetBytes(int64(len(crops[0].Pix)))
	return crops, float64(packed) / float64(len(crops))
}

// BenchmarkPackSet and BenchmarkUnpackSet price the packed form on the
// traffic it carries, and report the mean packed crop.
func BenchmarkPackSet(b *testing.B) {
	crops, mean := packSetFor(b)
	buf := make([]byte, 0, len(crops[0].Pix)+Channels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendPacked(buf[:0], crops[i%len(crops)])
	}
	b.ReportMetric(mean, "packed-B")
}

func BenchmarkUnpackSet(b *testing.B) {
	crops, mean := packSetFor(b)
	enc := make([][]byte, len(crops))
	for i, c := range crops {
		enc[i] = AppendPacked(nil, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Unpack(enc[i%len(enc)], 128, 128)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
	b.ReportMetric(mean, "packed-B")
}

// BenchmarkEncodeSet is what set-up spends on each stored SJPG object, and
// reports the mean object.
func BenchmarkEncodeSet(b *testing.B) {
	set := benchSetFor(b)
	stored := 0
	for _, s := range set {
		stored += len(s.data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeDefault(set[i%len(set)].im); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stored)/float64(len(set)), "stored-B")
}

// benchProgressive is benchSet's images as MaxScans SJPR containers, one
// sample of sharded_progressive each.
var benchProgressive = sync.OnceValues(func() ([][]byte, error) {
	set, err := benchSet()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(set))
	for i, s := range set {
		if out[i], err = EncodeProgressive(s.im, DefaultQuality, MaxScans); err != nil {
			return nil, err
		}
	}
	return out, nil
})

func BenchmarkEncodeProgressiveSet(b *testing.B) {
	set := benchSetFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeProgressive(set[i%len(set)].im, DefaultQuality, MaxScans); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeProgressiveCropResizeSet is BenchmarkDecodeCropResizeSet on
// the full containers, and reports what they cost to store beside SJPG.
func BenchmarkDecodeProgressiveCropResizeSet(b *testing.B) {
	set := benchSetFor(b)
	prog, err := benchProgressive()
	if err != nil {
		b.Fatal(err)
	}
	var sjpr, sjpg int
	for i, s := range set {
		sjpr, sjpg = sjpr+len(prog[i]), sjpg+len(s.data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeProgressiveCropResize(prog[i%len(set)], set[i%len(set)].rect, 128, 128)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
	b.ReportMetric(float64(sjpr)/float64(len(set)), "container-B")
	b.ReportMetric(float64(sjpr)/float64(sjpg), "sjpr/sjpg")
}
