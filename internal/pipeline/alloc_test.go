package pipeline

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/imaging"
	"repro/internal/raceflag"
	"repro/internal/tensor"
)

// Steady-state allocation counts for the per-sample preprocessing path,
// pinned exactly: with warm pools what allocates is the object headers
// (Image, Tensor). The collector is off because only a collection empties
// the pools, and testing.AllocsPerRun measures on one P because pools cache
// per P.

func TestFusedToTensorNormalizeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	im, err := imaging.Synthesize(imaging.SynthParams{W: 224, H: 224, Detail: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		tt, err := tensor.FromImageNormalized(im, tensor.ImageNetMean, tensor.ImageNetStd)
		if err != nil {
			t.Fatal(err)
		}
		tt.Release()
	})
	if allocs != 1 {
		t.Fatalf("fused ToTensor+Normalize allocates %.1f allocs/op at steady state, want 1 (the Tensor header)", allocs)
	}
}

func TestFullPipelineSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // warm the P AllocsPerRun measures on
	im, err := imaging.Synthesize(imaging.SynthParams{W: 320, H: 240, Detail: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultStandard()
	// Four crops, each drawn once to warm: a crop size bufpool has not seen
	// costs its first request a buffer and the size class's bookkeeping.
	var i uint64
	run := func() {
		out, err := p.Run(raw, Seed{Job: 3, Epoch: 1, Sample: i % 4})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		i++
	}
	for range 4 {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, run)
	runtime.ReadMemStats(&after)
	// The per-sample path allocates two object headers (cropped image,
	// tensor) and nothing else: the fused decode→crop builds no decoded
	// image, and its planes and tap tables are pooled.
	if got := (after.TotalAlloc - before.TotalAlloc) / 21; got > 64<<10 { // AllocsPerRun runs 1 + 20 times
		t.Fatalf("full pipeline allocates %d B/op at steady state, budget is 64 KiB (pre-pooling: ~3.4 MB)", got)
	}
	if allocs != 2 {
		t.Fatalf("full pipeline makes %.1f allocs/op at steady state, want 2 (crop and tensor headers)", allocs)
	}
}

// TestProfileAllocs: the profiling kernel allocates what Run does (crop and
// tensor headers) plus the trace's three slices; the fused pairs build
// neither the decoded image nor the un-normalised tensor, and sizing a packed
// stage draws its scratch from the pools.
func TestProfileAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // warm the P AllocsPerRun measures on
	im, err := imaging.Synthesize(imaging.SynthParams{W: 320, H: 240, Detail: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultStandard()
	var i uint64
	run := func() {
		out, _, err := p.Profile(raw, Seed{Job: 3, Epoch: 1, Sample: i % 4})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		i++
	}
	for range 4 {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 5 {
		t.Fatalf("Profile makes %.1f allocs/op at steady state, want 5 (crop and tensor headers, three trace slices)", allocs)
	}
}

// TestDecodeArtifactImageSteadyStateAllocs: unpacking an image artifact
// allocates the returned Image header and nothing else — the inflater, the
// plane scratch and the pixels are pooled — as copying raw pixels did.
func TestDecodeArtifactImageSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	im, err := imaging.Synthesize(imaging.SynthParams{W: 128, H: 128, Detail: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := imageArtifact(im).AppendEncode(nil)
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
