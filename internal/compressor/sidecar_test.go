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
	blobs, dict, err := MaterializeProgressive(set, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 8 || dict == nil {
		t.Fatalf("materialized %d blobs, dict %v", len(blobs), dict)
	}
	for i, b := range blobs {
		if !imaging.IsProgressive(b) {
			t.Fatalf("sample %d is not a progressive container", i)
		}
		// Pixels match the plain SJPG path exactly at full scan depth.
		im, _, err := imaging.DecodeProgressive(b)
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
			t.Fatalf("sample %d: progressive pixels differ from SJPG pixels", i)
		}
		// The sidecar label survives compression, and survives prefix
		// truncation — the header region precedes every scan.
		label, err := SidecarLabel(b, dict)
		if err != nil {
			t.Fatal(err)
		}
		want, err := set.Label(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(label, want) {
			t.Fatalf("sample %d label %q, want %q", i, label, want)
		}
		prefix, err := imaging.SlicePrefix(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		fromPrefix, err := SidecarLabel(prefix, dict)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromPrefix, label) {
			t.Fatalf("sample %d: base-scan prefix lost the sidecar", i)
		}
	}
	// Deterministic: a second materialization is bit-identical.
	again, _, err := MaterializeProgressive(set, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blobs {
		if !bytes.Equal(blobs[i], again[i]) {
			t.Fatalf("sample %d differs across materializations", i)
		}
	}
}

func TestSidecarDictionaryCompresses(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{Name: "d", N: 64, Seed: 3, MinDim: 32, MaxDim: 48})
	if err != nil {
		t.Fatal(err)
	}
	_, dict, err := MaterializeProgressive(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	var raw, enc int
	for i := 0; i < set.N(); i++ {
		l, err := set.Label(i)
		if err != nil {
			t.Fatal(err)
		}
		raw += len(l)
		enc += len(dict.Encode(l))
	}
	if enc >= raw {
		t.Fatalf("trained dictionary did not compress labels: %d >= %d", enc, raw)
	}
}

// serialProgressive is the loop MaterializeProgressive was before
// dataset.ForEach: dictionary over the whole label corpus first, then one
// container after another.
func serialProgressive(set *dataset.ImageSet, scans int) ([][]byte, *Dict, error) {
	labels := make([][]byte, set.N())
	for i := range labels {
		l, err := set.Label(i)
		if err != nil {
			return nil, nil, err
		}
		labels[i] = l
	}
	dict, err := TrainDict(labels, 0)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, set.N())
	for i := range out {
		m, err := set.Meta(i)
		if err != nil {
			return nil, nil, err
		}
		im, err := set.Image(i)
		if err != nil {
			return nil, nil, err
		}
		out[i], err = imaging.EncodeProgressiveSidecar(im, m.Quality, scans, dict.Encode(labels[i]))
		if err != nil {
			return nil, nil, fmt.Errorf("compressor: materialize progressive sample %d: %w", i, err)
		}
	}
	return out, dict, nil
}

// Containers and dictionary are the serial loop's bytes at any core count,
// no worker outlives the call, and when every sample fails (a scan count the
// codec refuses) the error is sample 0's.
func TestMaterializeProgressiveMatchesSerialLoop(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "par", N: 24, Seed: 21, MinDim: 24, MaxDim: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, wantDict, err := serialProgressive(set, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	wantTable, err := wantDict.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, _, wantErr := serialProgressive(set, imaging.MaxScans+1)
	if wantErr == nil {
		t.Fatal("serial loop accepted MaxScans+1 scans")
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			got, dict, err := MaterializeProgressive(set, imaging.MaxScans)
			if err != nil {
				t.Fatal(err)
			}
			table, err := dict.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(table, wantTable) {
				t.Fatal("dictionary differs from the serial loop's")
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
