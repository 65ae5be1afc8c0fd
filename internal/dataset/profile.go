package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/pipeline"
)

// Profile is a statistical description of a dataset, fitted to the paper's
// reported subset statistics. GenerateTrace draws per-sample records from
// it.
type Profile struct {
	Name string
	N    int

	// Raw (compressed) object size in bytes: lognormal(RawMu, RawSigma)
	// over ln-bytes, clamped to [MinRaw, MaxRaw].
	RawMu    float64
	RawSigma float64
	MinRaw   int64
	MaxRaw   int64

	// Compression ratio (3·pixels / rawBytes): lognormal over ln-ratio.
	CompressMu    float64
	CompressSigma float64

	// CropSize is the RandomResizedCrop output side (224 in the paper).
	CropSize int

	// TimeJitterSigma is the lognormal sigma multiplying each sample's op
	// times, modeling per-image preprocessing variance.
	TimeJitterSigma float64

	// Cost is the per-op CPU cost law.
	Cost CostModel
}

// OpenImages12G models the paper's 12 GB OpenImages subset: 40 000 images,
// mean raw size ≈ 300 KB, 76 % of samples larger than the 224²-crop
// artifact (and therefore shrinking during preprocessing).
func OpenImages12G() Profile {
	return Profile{
		Name:  "openimages-12g",
		N:     40000,
		RawMu: 12.380, RawSigma: 0.682,
		MinRaw: 4 << 10, MaxRaw: 8 << 20,
		CompressMu: math.Log(12), CompressSigma: 0.20,
		CropSize:        224,
		TimeJitterSigma: 0.10,
		Cost:            defaultCostModel(),
	}
}

// ImageNet11G models the paper's 11 GB ImageNet subset: 91 000 images, mean
// raw size ≈ 121 KB, only 26 % of samples larger than the crop artifact.
func ImageNet11G() Profile {
	return Profile{
		Name:  "imagenet-11g",
		N:     91000,
		RawMu: 11.384, RawSigma: 0.800,
		MinRaw: 2 << 10, MaxRaw: 4 << 20,
		CompressMu: math.Log(12), CompressSigma: 0.20,
		CropSize:        224,
		TimeJitterSigma: 0.10,
		Cost:            defaultCostModel(),
	}
}

// ScaledTo returns the profile with the sample count replaced by n, keeping
// every distribution intact. Useful for fast tests and scaled-down benches.
func (p Profile) ScaledTo(n int) Profile {
	p.N = n
	return p
}

// GenerateTrace draws a deterministic trace of p.N sample records.
func GenerateTrace(p Profile, seed uint64) (*Trace, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("dataset: profile %q has N=%d", p.Name, p.N)
	}
	if p.CropSize <= 0 {
		return nil, fmt.Errorf("dataset: profile %q has crop size %d", p.Name, p.CropSize)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x5bf0_3635))
	tr := &Trace{Name: p.Name, Records: make([]Record, p.N)}
	outPixels := int64(p.CropSize) * int64(p.CropSize)
	cropWire := int64(pipeline.ImageWireSize(p.CropSize, p.CropSize))
	tensorWire := int64(pipeline.TensorWireSize(3, p.CropSize, p.CropSize))

	for i := 0; i < p.N; i++ {
		raw := int64(math.Exp(p.RawMu + p.RawSigma*rng.NormFloat64()))
		if raw < p.MinRaw {
			raw = p.MinRaw
		}
		if raw > p.MaxRaw {
			raw = p.MaxRaw
		}
		ratio := math.Exp(p.CompressMu + p.CompressSigma*rng.NormFloat64())
		if ratio < 1.5 {
			ratio = 1.5
		}
		pixels := int64(float64(raw) * ratio / 3)
		if pixels < 64 {
			pixels = 64
		}
		aspect := 0.75 + rng.Float64()*(4.0/3.0-0.75)
		w := int(math.Round(math.Sqrt(float64(pixels) * aspect)))
		h := int(math.Round(math.Sqrt(float64(pixels) / aspect)))
		if w < 8 {
			w = 8
		}
		if h < 8 {
			h = 8
		}
		srcPixels := int64(w) * int64(h)

		jitter := math.Exp(p.TimeJitterSigma * rng.NormFloat64())
		rec := Record{
			ID:      uint32(i),
			RawSize: raw,
			Width:   w,
			Height:  h,
			OpTimes: p.Cost.opTimes(raw, srcPixels, outPixels, jitter),
		}
		rec.StageSizes = [StageCount]int64{
			int64(pipeline.RawWireSize(int(raw))),
			int64(pipeline.ImageWireSize(w, h)),
			cropWire,
			cropWire,
			tensorWire,
			tensorWire,
		}
		tr.Records[i] = rec
	}
	return tr, nil
}
