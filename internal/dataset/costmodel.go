package dataset

import "time"

// CostModel gives the per-op CPU cost law used by the trace generator and
// by the discrete-event engine when replaying profiled records. Constants
// are nanoseconds per unit and were calibrated so that (a) full-pipeline
// preprocessing of the OpenImages-12G profile takes ~15 ms/sample on one
// core — matching the paper's setup where 48 compute cores eliminate the
// preprocessing bottleneck while ≤2 storage cores create one — and (b) the
// Decode+RandomResizedCrop prefix costs ~13 ms/sample so Resize-Off beats
// No-Off only with ≥3 storage cores, as in Figure 4.
type CostModel struct {
	DecodePerPixel  float64 // ns per decoded pixel
	DecodePerByte   float64 // ns per raw (compressed) byte
	CropPerOutPixel float64 // ns per output pixel of RandomResizedCrop
	CropPerSrcPixel float64 // ns per source pixel of RandomResizedCrop
	FlipPerPixel    float64 // ns per pixel of RandomHorizontalFlip
	ToTensorPerPix  float64 // ns per pixel of ToTensor
	NormalizePerPix float64 // ns per pixel of Normalize
}

// defaultCostModel is the calibrated cost law from DESIGN.md.
func defaultCostModel() CostModel {
	return CostModel{
		DecodePerPixel:  8,
		DecodePerByte:   4,
		CropPerOutPixel: 20,
		CropPerSrcPixel: 1,
		FlipPerPixel:    4,
		ToTensorPerPix:  18,
		NormalizePerPix: 12,
	}
}

// opTimes evaluates the cost law for a sample with the given raw byte size,
// decoded pixel count, and crop-output pixel count. jitter multiplies every
// op time (1 means none).
func (m CostModel) opTimes(rawBytes, srcPixels, outPixels int64, jitter float64) [OpCount]time.Duration {
	ns := func(v float64) time.Duration { return time.Duration(v * jitter) }
	return [OpCount]time.Duration{
		ns(m.DecodePerPixel*float64(srcPixels) + m.DecodePerByte*float64(rawBytes)),
		ns(m.CropPerOutPixel*float64(outPixels) + m.CropPerSrcPixel*float64(srcPixels)),
		ns(m.FlipPerPixel * float64(outPixels)),
		ns(m.ToTensorPerPix * float64(outPixels)),
		ns(m.NormalizePerPix * float64(outPixels)),
	}
}
