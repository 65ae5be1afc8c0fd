package imaging

import (
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentCodecBitIdentical hammers the pooled encode/decode path from
// GOMAXPROCS goroutines. Every decode must be bit-identical to a reference
// decoded single-threaded before the storm starts: if a pooled plane or pixel
// buffer were ever handed to two decodes at once, or returned to the pool
// while still referenced, the comparison (or the race detector) catches it.
// The fused decode→crop runs in the same storm against its own single-threaded
// result: its tap tables and the planes under them are pooled too.
func TestConcurrentCodecBitIdentical(t *testing.T) {
	const nInputs = 4
	type input struct {
		data []byte
		ref  *Image // plain (non-pooled) memory via Clone
		rect Rect
		crop *Image // DecodeCropResize(data, rect, 48, 48), plain memory
	}
	inputs := make([]input, nInputs)
	for k := 0; k < nInputs; k++ {
		im, err := Synthesize(SynthParams{W: 96 + 16*k, H: 64 + 8*k, Detail: 0.6, Seed: uint64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		rect := Rect{X: 3 * k, Y: 2 * k, W: 50 + 20*k, H: 60 - 8*k}
		crop, err := DecodeCropResize(data, rect, 48, 48)
		if err != nil {
			t.Fatal(err)
		}
		inputs[k] = input{data: data, ref: clone(dec), rect: rect, crop: clone(crop)}
		crop.Release()
		dec.Release()
	}

	workers := runtime.GOMAXPROCS(0)
	iters := 30
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				in := inputs[(w+i)%nInputs]
				dec, err := Decode(in.data)
				if err != nil {
					errs <- err
					return
				}
				if !dec.Equal(in.ref) {
					t.Errorf("worker %d iter %d: decoded image differs from reference", w, i)
					dec.Release()
					return
				}
				crop, err := DecodeCropResize(in.data, in.rect, 48, 48)
				if err != nil {
					errs <- err
					return
				}
				if !crop.Equal(in.crop) {
					t.Errorf("worker %d iter %d: fused decode→crop differs from the unfused reference", w, i)
				}
				crop.Release()
				// Re-encode the pooled image and decode again: exercises the
				// pooled encoder scratch concurrently with other decoders.
				reenc, err := EncodeDefault(dec)
				dec.Release()
				if err != nil {
					errs <- err
					return
				}
				dec2, err := Decode(reenc)
				if err != nil {
					errs <- err
					return
				}
				if !dec2.Equal(in.ref) {
					t.Errorf("worker %d iter %d: re-encoded round trip differs from reference", w, i)
				}
				dec2.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
