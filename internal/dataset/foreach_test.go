package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs body at GOMAXPROCS 1, 2 and 8 and, after each, requires the
// goroutine count back at what it was before: ForEach's workers are the only
// goroutines set-up starts and all of them must be gone when it returns.
func atProcs(t *testing.T, body func(t *testing.T, procs int)) {
	t.Helper()
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			body(t, procs)
			// A worker is counted until it has returned from its deferred
			// wg.Done, a moment after the Wait it released.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		const n = 100
		// The first min(procs, n) calls meet at a barrier: it opens only if
		// that many workers exist, and peak shows there are no more.
		var calls [n]atomic.Int32
		var inflight, peak, arrived atomic.Int32
		open := make(chan struct{})
		out := make([]int, n)
		err := ForEach(n, func(i int) error {
			calls[i].Add(1)
			now := inflight.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if a := arrived.Add(1); int(a) == procs {
				close(open)
			} else if int(a) < procs {
				select {
				case <-open:
				case <-time.After(10 * time.Second):
					t.Errorf("index %d: only %d of %d workers arrived", i, arrived.Load(), procs)
				}
			}
			out[i] = i * i
			inflight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 || out[i] != i*i {
				t.Fatalf("index %d: called %d times, slot %d", i, c, out[i])
			}
		}
		if int(peak.Load()) != procs {
			t.Fatalf("peak concurrency %d at GOMAXPROCS %d", peak.Load(), procs)
		}
		// Fewer indices than cores: one goroutine per index.
		peak.Store(0)
		if err := ForEach(1, func(int) error { peak.Add(1); return nil }); err != nil || peak.Load() != 1 {
			t.Fatalf("n=1: err %v, %d calls", err, peak.Load())
		}
	})
}

func TestForEachEmptyStartsNothing(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		base := runtime.NumGoroutine()
		for _, n := range []int{0, -3} {
			if err := ForEach(n, func(int) error { t.Error("fn called"); return nil }); err != nil {
				t.Fatal(err)
			}
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("n=%d: %d goroutines, %d before", n, got, base)
			}
		}
	})
}

// The serial loop returned the first failing index's error. Here index 19
// fails first in time — index 7 holds its error back until 19 has failed
// wherever a second worker exists to run 19 — and 7's must still be the one
// returned. A failure also ends the hand-out of indices: on one worker
// nothing after it starts, and on any number a range that could never be
// finished returns.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		var after7 atomic.Int32
		failed19 := make(chan struct{})
		err := ForEach(200, func(i int) error {
			switch {
			case i == 7:
				if procs > 1 {
					<-failed19
				}
				return errors.New("seven")
			case i == 19:
				defer close(failed19)
				return errors.New("nineteen")
			case i > 7:
				after7.Add(1)
			}
			return nil
		})
		if err == nil || err.Error() != "seven" {
			t.Fatalf("err = %v, want seven", err)
		}
		if procs == 1 && after7.Load() != 0 {
			t.Fatalf("%d indices started after the failure on the only worker", after7.Load())
		}
		err = ForEach(math.MaxInt, func(i int) error {
			if i == 3 {
				return errors.New("three")
			}
			return nil
		})
		if err == nil || err.Error() != "three" {
			t.Fatalf("err = %v, want three", err)
		}
	})
}

func testSet(t *testing.T) *ImageSet {
	t.Helper()
	set, err := NewSyntheticImageSet(SyntheticOptions{Name: "par", N: 24, Seed: 21, MinDim: 24, MaxDim: 96})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// serialRaws is the loop Materialize was before ForEach.
func serialRaws(s *ImageSet) ([][]byte, error) {
	out := make([][]byte, s.N())
	for i := range out {
		raw, err := s.Raw(i)
		if err != nil {
			return nil, fmt.Errorf("dataset: materialize sample %d: %w", i, err)
		}
		out[i] = raw
	}
	return out, nil
}

// serialWriteDir is the loop WriteDir was before ForEach.
func serialWriteDir(s *ImageSet, dir string, seed uint64) error {
	m := &Manifest{Name: s.Name(), Seed: seed, N: s.N()}
	for i := 0; i < s.N(); i++ {
		raw, err := s.Raw(i)
		if err != nil {
			return err
		}
		meta, err := s.Meta(i)
		if err != nil {
			return err
		}
		file := fmt.Sprintf("%06d.sjpg", i)
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			return fmt.Errorf("dataset: write sample %d: %w", i, err)
		}
		m.TotalBytes += int64(len(raw))
		m.Samples = append(m.Samples, ManifestEntry{
			ID: uint32(i), File: file, Width: meta.W, Height: meta.H,
			Bytes: len(raw), Quality: meta.Quality,
		})
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestFile), blob, 0o644)
}

func TestMaterializeMatchesSerialLoop(t *testing.T) {
	set := testSet(t)
	want, err := serialRaws(set)
	if err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T, _ int) {
		got, err := set.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		requireSameBlobs(t, got, want)
	})
}

func requireSameBlobs(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d blobs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("sample %d: %d bytes differ from the serial loop's %d", i, len(got[i]), len(want[i]))
		}
	}
}

func TestWriteDirMatchesSerialLoop(t *testing.T) {
	set := testSet(t)
	ref := t.TempDir()
	if err := serialWriteDir(set, ref, 21); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadDir(ref)
	if err != nil {
		t.Fatal(err)
	}
	raws, err := serialRaws(set)
	if err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T, _ int) {
		dir := t.TempDir()
		m, err := WriteDir(set, dir, 21)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) != set.N()+1 {
			t.Fatalf("%d files, serial loop wrote %d", len(got), len(want))
		}
		var total int64
		for i, e := range want {
			a, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(ref, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Name() != e.Name() || !bytes.Equal(a, b) {
				t.Fatalf("file %d: %s differs from the serial loop's %s", i, got[i].Name(), e.Name())
			}
			if e.Name() != ManifestFile {
				total += int64(len(a))
			}
		}
		if m.TotalBytes != total || len(m.Samples) != set.N() {
			t.Fatalf("manifest: %d bytes in %d samples, files hold %d", m.TotalBytes, len(m.Samples), total)
		}
		ds, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ds.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		requireSameBlobs(t, loaded, raws)
	})
}

// Two samples that cannot be rendered, for two different reasons: every
// entry point reports the lower one, in the serial loop's words.
func TestMaterializeReturnsLowestIndexError(t *testing.T) {
	good := testSet(t)
	bad := &ImageSet{name: good.name, metas: append([]ImageMeta(nil), good.metas...)}
	bad.metas[5].Quality = 101
	bad.metas[17].W = 0
	_, want := serialRaws(bad)
	if want == nil || want.Error() != "dataset: materialize sample 5: imaging: quality must be in [1, 100]: 101" {
		t.Fatalf("serial loop: %v", want)
	}
	wantWrite := serialWriteDir(bad, t.TempDir(), 1)

	dir := t.TempDir()
	if _, err := WriteDir(good, dir, 1); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{5, 17} {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("%06d.sjpg", i))); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, wantRead := ds.raw(5)

	atProcs(t, func(t *testing.T, _ int) {
		if _, err := bad.Materialize(); err == nil || err.Error() != want.Error() {
			t.Errorf("Materialize: %v, want %v", err, want)
		}
		if _, err := WriteDir(bad, t.TempDir(), 1); err == nil || err.Error() != wantWrite.Error() {
			t.Errorf("WriteDir: %v, want %v", err, wantWrite)
		}
		if _, err := ds.Materialize(); err == nil || err.Error() != wantRead.Error() {
			t.Errorf("DirSet.Materialize: %v, want %v", err, wantRead)
		}
	})
}
