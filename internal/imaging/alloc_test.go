package imaging

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// The codec is the data plane's hottest kernel, so its steady-state
// allocation count is pinned exactly: with warm pools every buffer we control
// — plane scratch, code tables, pixel output — is recycled, and what remains
// is the returned Image header (Decode) or the returned stream (Encode). The
// collector is off because only a collection empties the pools, and
// testing.AllocsPerRun measures on one P because pools cache per P. One
// allocation more fails the count; a per-call plane or pixel buffer (megabytes
// per op) would also fail Decode's byte budget.

func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // warm the P AllocsPerRun measures on
	im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		out, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, decode)
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 21; got > 64<<10 { // AllocsPerRun runs 1 + 20 times
		t.Fatalf("Decode allocates %d B/op at steady state, budget is 64 KiB (pre-pooling: ~1.4 MB)", got)
	}
	if allocs != 1 {
		t.Fatalf("Decode makes %.1f allocs/op at steady state, want 1 (the Image header)", allocs)
	}
}

// TestDecodeCropResizeSteadyStateAllocs: the fused prefix allocates the
// crop's Image header and nothing else — planes, tap tables and output
// pixels are all pooled. The collector is off because only a collection
// empties the pools.
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
		"DecodeCropResize/L1": func(r Rect) (*Image, error) { return DecodeCropResize(data, r, 128, 128) },
		"DecodeCropResize/L3": func(r Rect) (*Image, error) { return DecodeCropResize(prog, r, 128, 128) },
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeDefault(im); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Encode allocates %.1f allocs/op at steady state, want 1 (the returned stream)", allocs)
	}
}

// TestSynthesizeAllocs: the pixels come from the pool, so what Synthesize
// allocates is fixed and small: the Image header, the noise source, the three
// lattices, the column table and the interpolated rows — seven, about a tenth
// of the 900 KB pixel buffer at 640×480.
func TestSynthesizeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // warm the P AllocsPerRun measures on
	synth := func() {
		im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		im.Release()
	}
	synth()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, synth)
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 21; got > 128<<10 {
		t.Fatalf("Synthesize allocates %d B/op at warm pools, budget is 128 KiB (the pixels alone are 900 KiB)", got)
	}
	if allocs != 7 {
		t.Fatalf("Synthesize makes %.1f allocs/op at warm pools, want 7", allocs)
	}
}

// TestDecodeSizesNothingFromAnImplausibleHeader: a bit of codes yields at most
// 258 bytes, so dimensions the payload cannot possibly fill are refused before
// the planes (here 366 MB) are requested — from the index.
func TestDecodeSizesNothingFromAnImplausibleHeader(t *testing.T) {
	bare := []byte{'S', 'J', 'P', 'G', sjpgVersion, 80, 0, 0, 0x3e, 0x80, 0, 0, 0x3e, 0x80, 1, 0x03, 0x00} // 16000x16000, a 3-byte index in 1
	deep, err := EncodeProgressive(synthFor(t, 1, 16, 12, 0.5), 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(deep[6:14], bare[6:14]) // same claim; the scan CRCs still hold
	for name, data := range map[string][]byte{"a bare header": bare, "a 16×12 container": deep} {
		decode := func() error { _, err := Decode(data); return err }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte input", name, got, len(data))
		}
	}
}
