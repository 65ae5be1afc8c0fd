package compressor

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/imaging"
)

func TestMaterializeProgressiveRoundTrip(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "prog", N: 8, Seed: 9, MinDim: 40, MaxDim: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	blobs, _, err := MaterializeProgressive(set, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 8 {
		t.Fatalf("materialized %d blobs", len(blobs))
	}
	for i, b := range blobs {
		if !imaging.IsProgressive(b) {
			t.Fatalf("sample %d is a container of one scan", i)
		}
		// Pixels match the one-scan object exactly at full scan depth.
		im, err := imaging.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := set.Raw(i)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := imaging.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !im.Equal(dec) {
			t.Fatalf("sample %d: progressive pixels differ from the one-scan object's", i)
		}
	}
}

// serialProgressive is the loop MaterializeProgressive was before
// dataset.ForEach: one container after another.
func serialProgressive(set *dataset.ImageSet, scans int) ([][]byte, error) {
	out := make([][]byte, set.N())
	for i := range out {
		m, err := set.Meta(i)
		if err != nil {
			return nil, err
		}
		im, err := set.Image(i)
		if err == nil {
			out[i], err = imaging.EncodeProgressive(im, m.Quality, scans)
		}
		if err != nil {
			return nil, fmt.Errorf("compressor: materialize progressive sample %d: %w", i, err)
		}
	}
	return out, nil
}

// Containers are the serial loop's bytes at any core count,
// no worker outlives the call, and when every sample fails (a scan count the
// codec refuses) the error is sample 0's.
func TestMaterializeProgressiveMatchesSerialLoop(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "par", N: 24, Seed: 21, MinDim: 24, MaxDim: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialProgressive(set, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := serialProgressive(set, imaging.MaxScans+1)
	if wantErr == nil {
		t.Fatal("serial loop accepted MaxScans+1 scans")
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			got, _, err := MaterializeProgressive(set, imaging.MaxScans)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d containers, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("sample %d: container differs from the serial loop's", i)
				}
			}
			if _, _, err := MaterializeProgressive(set, imaging.MaxScans+1); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("err = %v, want %v", err, wantErr)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the calls", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
