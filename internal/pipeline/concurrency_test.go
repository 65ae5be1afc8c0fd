package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// TestConcurrentFusedKernelBitIdentical checks that the fused
// ToTensor+Normalize kernel, running on pooled tensors from many goroutines,
// produces output bit-identical to the unfused two-pass reference computed
// single-threaded. Pool reuse must never leak one sample's values into
// another's output.
func TestConcurrentFusedKernelBitIdentical(t *testing.T) {
	const nInputs = 4
	type input struct {
		im  *imaging.Image
		ref *tensor.Tensor // plain memory via Clone
	}
	inputs := make([]input, nInputs)
	for k := 0; k < nInputs; k++ {
		im, err := imaging.Synthesize(imaging.SynthParams{W: 64 + 8*k, H: 48 + 8*k, Detail: 0.5, Seed: uint64(k + 11)})
		if err != nil {
			t.Fatal(err)
		}
		ref := tensor.FromImage(im)
		if err := ref.Normalize(tensor.ImageNetMean, tensor.ImageNetStd); err != nil {
			t.Fatal(err)
		}
		inputs[k] = input{im: im, ref: ref.Clone()}
		ref.Release()
	}

	workers := runtime.GOMAXPROCS(0)
	iters := 50
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				in := inputs[(w+i)%nInputs]
				got, err := tensor.FromImageNormalized(in.im, tensor.ImageNetMean, tensor.ImageNetStd)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(in.ref) {
					t.Errorf("worker %d iter %d: fused kernel output differs from unfused reference", w, i)
					got.Release()
					return
				}
				got.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentPipelineDeterministic runs the full pipeline (fused
// decode→crop over pooled planes, tap tables and compact buffer, in-place
// flip, pooled per-op rng, fused tensor tail) from many goroutines and checks
// that each (raw, seed) pair yields a tensor bit-identical to the one Trace —
// op by op, fresh rng per op — produced single-threaded. This pins two
// properties at once: pooled rng re-seeding reproduces the exact rand.NewPCG
// stream, and no pooled buffer is shared across concurrent samples.
func TestConcurrentPipelineDeterministic(t *testing.T) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 320, H: 240, Detail: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultStandard()

	const nSeeds = 8
	refs := make([]*tensor.Tensor, nSeeds)
	for s := 0; s < nSeeds; s++ {
		out, _, err := p.Trace(raw, Seed{Job: 2, Epoch: 1, Sample: uint64(s)})
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != KindTensor {
			t.Fatalf("pipeline output kind %v, want tensor", out.Kind)
		}
		refs[s] = out.Tensor.Clone()
		out.Release()
	}

	workers := runtime.GOMAXPROCS(0)
	iters := 20
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := (w + i) % nSeeds
				out, err := p.Run(raw, Seed{Job: 2, Epoch: 1, Sample: uint64(s)})
				if err != nil {
					t.Error(err)
					return
				}
				if out.Kind != KindTensor || !out.Tensor.Equal(refs[s]) {
					t.Errorf("worker %d iter %d: concurrent pipeline output differs from single-threaded run for seed %d", w, i, s)
					out.Release()
					return
				}
				out.Release()
			}
		}(w)
	}
	wg.Wait()
}
