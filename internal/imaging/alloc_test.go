package imaging

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// The codec is the data plane's hottest kernel, so its steady-state
// allocation behavior is pinned. With warm pools, every buffer we control —
// plane scratch, inflater tables, pixel output — is recycled; what remains
// of a Decode is the returned Image header. The budgets below are therefore
// a small byte ceiling plus an alloc-count ceiling one above that floor: a
// regression that reintroduces per-call plane or pixel buffers (megabytes
// per op) trips the byte budget immediately, one that reintroduces per-block
// table allocations trips the count.

func TestDecodeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the inflater and plane/pixel pools.
	for i := 0; i < 8; i++ {
		out, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 64<<10 {
		t.Fatalf("Decode allocates %d B/op at steady state, budget is 64 KiB (pre-pooling: ~1.4 MB)", got)
	}
	if got := res.AllocsPerOp(); got > 2 {
		t.Fatalf("Decode makes %d allocs/op at steady state, budget is 2 (the Image header is 1)", got)
	}
}

// TestDecodeCropResizeSteadyStateAllocs: the fused prefix allocates the
// crop's Image header and nothing else — planes, tap tables, compact buffer
// and output pixels are all pooled. The collector is off because only a
// collection empties the pools.
func TestDecodeCropResizeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	data, err := EncodeDefault(synthFor(t, 9, 320, 240, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := EncodeProgressive(synthFor(t, 9, 320, 240, 0.5), DefaultQuality, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func(Rect) (*Image, error){
		"DecodeCropResize":            func(r Rect) (*Image, error) { return DecodeCropResize(data, r, 128, 128) },
		"DecodeProgressiveCropResize": func(r Rect) (*Image, error) { return DecodeProgressiveCropResize(prog, r, 128, 128) },
	} {
		// Sparse taps, every pixel reused, pure copy: the same pooled scratch.
		rects := []Rect{{X: 10, Y: 5, W: 300, H: 230}, {X: 100, Y: 100, W: 40, H: 30}, {X: 7, Y: 9, W: 128, H: 128}}
		var i int
		allocs := testing.AllocsPerRun(30, func() {
			out, err := decode(rects[i%len(rects)])
			if err != nil {
				t.Fatal(err)
			}
			out.Release()
			i++
		})
		if allocs != 1 {
			t.Errorf("%s allocates %.1f allocs/op at steady state, want 1 (the Image header)", name, allocs)
		}
	}
}

func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := EncodeDefault(im); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeDefault(im); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Encode allocates %.1f allocs/op at steady state, budget is 2", allocs)
	}
}

// TestDecodeSizesNothingFromAnImplausibleHeader: DEFLATE cannot expand past
// 1032:1, so dimensions the payload cannot possibly fill are refused before
// the planes (here 366 MB) are requested.
func TestDecodeSizesNothingFromAnImplausibleHeader(t *testing.T) {
	sjpg := []byte{'S', 'J', 'P', 'G', sjpgVersion, 80, 0, 0, 0x3e, 0x80, 0, 0, 0x3e, 0x80, 0x03, 0x00} // 16000x16000, empty final block
	im := synthFor(t, 1, 16, 12, 0.5)
	sjpr, err := EncodeProgressive(im, 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(sjpr[6:14], sjpg[6:14]) // same claim; the scan CRCs still hold
	for name, decode := range map[string]func() error{
		"Decode":            func() error { _, err := Decode(sjpg); return err },
		"DecodeProgressive": func() error { _, _, err := DecodeProgressive(sjpr); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte input", name, got, len(sjpg))
		}
	}
}
