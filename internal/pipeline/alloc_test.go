package pipeline

import (
	"runtime/debug"
	"testing"

	"repro/internal/imaging"
	"repro/internal/raceflag"
	"repro/internal/tensor"
)

// Steady-state allocation budgets for the per-sample preprocessing path.
// Budgets are deliberately small but non-zero: the object headers (Image,
// Tensor) still allocate, and a GC may clear a sync.Pool mid-run.

func TestFusedToTensorNormalizeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	im, err := imaging.Synthesize(imaging.SynthParams{W: 224, H: 224, Detail: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm := func() {
		tt, err := tensor.FromImageNormalized(im, tensor.ImageNetMean, tensor.ImageNetStd)
		if err != nil {
			t.Fatal(err)
		}
		tt.Release()
	}
	for i := 0; i < 8; i++ {
		warm()
	}
	allocs := testing.AllocsPerRun(50, warm)
	if allocs > 2 {
		t.Fatalf("fused ToTensor+Normalize allocates %.1f allocs/op at steady state, budget is 2", allocs)
	}
}

func TestFullPipelineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	im, err := imaging.Synthesize(imaging.SynthParams{W: 320, H: 240, Detail: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultStandard()
	run := func(fatal func(...any), i int) {
		out, err := p.Run(raw, Seed{Job: 3, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			fatal(err)
		}
		out.Release()
	}
	for i := 0; i < 8; i++ {
		run(t.Fatal, i)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b.Fatal, i)
		}
	})
	// With warm pools the per-sample path allocates two object headers
	// (cropped image, tensor) and nothing else: the fused decode→crop builds
	// no decoded image, and its tap tables and compact buffer are pooled.
	// Pre-pooling it allocated ~3.4 MB/op; with compress/flate's reader, ~45
	// tables.
	if got := res.AllocedBytesPerOp(); got > 64<<10 {
		t.Fatalf("full pipeline allocates %d B/op at steady state, budget is 64 KiB (pre-pooling: ~3.4 MB)", got)
	}
	if got := res.AllocsPerOp(); got > 4 {
		t.Fatalf("full pipeline makes %d allocs/op at steady state, budget is 4", got)
	}
}

// TestDecodeArtifactImageSteadyStateAllocs: unpacking an image artifact
// allocates the returned Image header and nothing else — the inflater, the
// plane scratch and the pixels are pooled — as copying raw pixels did.
func TestDecodeArtifactImageSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only a collection empties the pools
	im, err := imaging.Synthesize(imaging.SynthParams{W: 128, H: 128, Detail: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ImageArtifact(im).Encode()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		a, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatal(err)
		}
		a.Release()
	})
	if allocs != 1 {
		t.Fatalf("image DecodeArtifact allocates %.1f allocs/op at steady state, want 1 (the Image header)", allocs)
	}
}
