package imaging

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// planesStreams encodes im at quality q as one scan, as a MaxScans-deep
// container, and as that container's prefix of two scans, whose planes
// dequantize under wider shifts, by name.
func planesStreams(t *testing.T, im *Image, q int) map[string][]byte {
	t.Helper()
	one, err := Encode(im, q)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := EncodeProgressive(im, q, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := SlicePrefix(deep, 2)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%dx%d/q%d", im.W, im.H, q)
	return map[string][]byte{name + "/L1": one, name + "/L4": deep, name + "/L4-k2": prefix}
}

// TestPlanesMatchDecode: an object decoded once into Planes gives Decode's
// image and, for every rect, DecodeCropResize's crop, byte for byte and error
// for error — over one-scan objects, MaxScans-deep ones and a prefix of one,
// every geometry of the resample grid and quantization band, seeded rects of
// each relation to the output, and output sizes 37, 128 and 224. Only the
// dequantization tables differ from one quality to the next, so qualities
// other than the default draw fewer rects.
func TestPlanesMatchDecode(t *testing.T) {
	for _, dim := range gridDims {
		w, h := dim[0], dim[1]
		if hurried() && w*h > 333*251 {
			continue
		}
		im := synthFor(t, uint64(w*1000+h), w, h, 0.6)
		for _, q := range refQualities {
			for name, data := range planesStreams(t, im, q) {
				pl, err := DecodePlanes(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pl.Image()
				if err != nil || !got.Equal(want) {
					t.Fatalf("%s: Planes.Image: err %v, equal %v", name, err, err == nil && got.Equal(want))
				}
				got.Release()
				want.Release()
				seeds := gridSeeds(w, h)
				if q != DefaultQuality {
					seeds = min(8, seeds)
				}
				for _, out := range []int{37, 128, 224} {
					for seed := 0; seed < seeds; seed++ {
						rect := gridRect(rand.New(rand.NewPCG(uint64(seed), uint64(out))), w, h, out, seed%4)
						want, err := DecodeCropResize(data, rect, out, out)
						if err != nil {
							t.Fatal(err)
						}
						got, err := pl.CropResize(rect, out, out)
						if err != nil || !got.Equal(want) {
							t.Fatalf("%s: crop %+v to %d: err %v, equal %v", name, rect, out, err, err == nil && got.Equal(want))
						}
						got.Release()
						want.Release()
					}
				}
				outside := Rect{X: 1, W: w, H: h}
				_, wantErr := DecodeCropResize(data, outside, 8, 8)
				if _, err := pl.CropResize(outside, 8, 8); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: rect past the image: Planes says %v, DecodeCropResize %v", name, err, wantErr)
				}
			}
		}
	}
}

// TestDecodePlanesRefuses: what Decode refuses — a flipped byte in any
// unit, which a scan's CRC shows however few units a crop would read, a
// prefix ending inside a scan, the sliced form — DecodePlanes refuses too.
func TestDecodePlanesRefuses(t *testing.T) {
	im := synthFor(t, 7, 200, 120, 0.6)
	data, err := EncodeProgressive(im, 80, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x80
	sliced := make([]byte, len(data))
	sliced = sliced[:Slice(sliced, data, 0, Rect{W: 40, H: 20})]
	for name, bad := range map[string][]byte{
		"flipped":  flipped,
		"mid-scan": data[:len(data)-1],
		"sliced":   sliced,
	} {
		_, wantErr := Decode(bad)
		if _, err := DecodePlanes(bad); err == nil || wantErr == nil {
			t.Errorf("%s: DecodePlanes %v, Decode %v: want both to refuse", name, err, wantErr)
		}
	}
	if _, err := DecodePlanes(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped byte: %v, want ErrCorrupt", err)
	}
}

// TestPlanesConcurrentCrops: GOMAXPROCS goroutines (at least four) crop from
// and dequantize one Planes at once, each result equal to DecodeCropResize's
// or Decode's. Run under -race, this shows that a crop reads the planes and
// writes nothing of them.
func TestPlanesConcurrentCrops(t *testing.T) {
	im := synthFor(t, 11, 333, 251, 0.6)
	data, err := EncodeProgressive(im, 80, MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DecodePlanes(data)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ref := clone(full)
	full.Release()
	const crops = 8
	rects, wants := make([]Rect, crops), make([]*Image, crops)
	for k := range rects {
		rects[k] = gridRect(rand.New(rand.NewPCG(uint64(k), 3)), im.W, im.H, 48, k%4)
		want, err := DecodeCropResize(data, rects[k], 48, 48)
		if err != nil {
			t.Fatal(err)
		}
		wants[k] = clone(want)
		want.Release()
	}
	iters := 20
	if hurried() {
		iters = 5
	}
	var wg sync.WaitGroup
	for g := range max(runtime.GOMAXPROCS(0), 4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iters {
				k := (g + i) % crops
				got, err := pl.CropResize(rects[k], 48, 48)
				if err != nil || !got.Equal(wants[k]) {
					t.Errorf("goroutine %d: crop %+v: err %v, equal %v", g, rects[k], err, err == nil && got.Equal(wants[k]))
					return
				}
				got.Release()
				if i%4 == 0 {
					whole, err := pl.Image()
					if err != nil || !whole.Equal(ref) {
						t.Errorf("goroutine %d: Image: err %v, equal %v", g, err, err == nil && whole.Equal(ref))
						return
					}
					whole.Release()
				}
			}
		}()
	}
	wg.Wait()
}
