package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/imaging"
)

func writeTestDir(t *testing.T) (string, *ImageSet) {
	t.Helper()
	set, err := NewSyntheticImageSet(SyntheticOptions{Name: "disk", N: 5, Seed: 4, MinDim: 24, MaxDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := WriteDir(set, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 5 || m.TotalBytes == 0 || m.Name != "disk" {
		t.Fatalf("manifest: %+v", m)
	}
	return dir, set
}

func TestWriteLoadDirRoundTrip(t *testing.T) {
	dir, set := writeTestDir(t)
	ds, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 5 || ds.Name() != "disk" || ds.TotalBytes() == 0 {
		t.Fatalf("loaded facts: %d %q %d", ds.N(), ds.Name(), ds.TotalBytes())
	}
	for i := 0; i < 5; i++ {
		fromDisk, err := ds.Raw(i)
		if err != nil {
			t.Fatal(err)
		}
		fromSet, err := set.Raw(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromDisk, fromSet) {
			t.Fatalf("sample %d bytes differ on disk", i)
		}
	}
	blobs, err := ds.Materialize()
	if err != nil || len(blobs) != 5 {
		t.Fatalf("materialize: %d, %v", len(blobs), err)
	}
}

func TestDirSetBounds(t *testing.T) {
	dir, _ := writeTestDir(t)
	ds, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Raw(-1); err == nil {
		t.Fatal("Raw(-1) accepted")
	}
	if _, err := ds.Raw(5); err == nil {
		t.Fatal("Raw(N) accepted")
	}
}

func TestLoadDirRejectsBadManifests(t *testing.T) {
	dir, _ := writeTestDir(t)
	manifestPath := filepath.Join(dir, ManifestFile)
	good, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}

	rewrite := func(mut func(*Manifest)) {
		t.Helper()
		bad := m
		bad.Samples = append([]ManifestEntry(nil), m.Samples...)
		mut(&bad)
		blob, _ := json.Marshal(bad)
		if err := os.WriteFile(manifestPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rewrite(func(b *Manifest) { b.N = 99 })
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("accepted wrong N")
	}
	rewrite(func(b *Manifest) { b.Samples[2].ID = 7 })
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("accepted out-of-order ids")
	}
	rewrite(func(b *Manifest) { b.Samples[0].File = "../escape.sjpg" })
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("accepted path traversal")
	}
	if err := os.WriteFile(manifestPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("accepted corrupt JSON")
	}
	os.Remove(manifestPath)
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("accepted missing manifest")
	}
}

func TestDirSetDetectsTruncatedFiles(t *testing.T) {
	dir, _ := writeTestDir(t)
	ds, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate one sample file; Raw must notice the size mismatch.
	path := filepath.Join(dir, "000001.sjpg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Raw(1); err == nil {
		t.Fatal("accepted truncated sample file")
	}
}

// TestDirSetRefusesStaleAndMismatchedSamples: a sample file whose version
// byte an older build wrote, and a manifest whose width disagrees with a
// file's header, fail Materialize with an error naming the sample and
// wrapping imaging.ErrUnsupported or imaging.ErrCorrupt.
func TestDirSetRefusesStaleAndMismatchedSamples(t *testing.T) {
	dir, _ := writeTestDir(t)
	path := filepath.Join(dir, "000003.sjpg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4]-- // the version byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Materialize(); !errors.Is(err, imaging.ErrUnsupported) || !strings.Contains(err.Error(), "sample 3") {
		t.Errorf("stale version byte: Materialize err %v, want ErrUnsupported naming sample 3", err)
	}

	dir, _ = writeTestDir(t)
	manifestPath := filepath.Join(dir, ManifestFile)
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m.Samples[2].Width++
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if ds, err = LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Materialize(); !errors.Is(err, imaging.ErrCorrupt) || !strings.Contains(err.Error(), "sample 2") {
		t.Errorf("manifest width edited: Materialize err %v, want ErrCorrupt naming sample 2", err)
	}
}

// TestDirSetDecodesEverySampleAtLoad: a flipped bit in the last band of one
// sample — where a crop of the image's first rows never looks — fails
// Materialize with an error naming that sample's file.
func TestDirSetDecodesEverySampleAtLoad(t *testing.T) {
	dir, set := writeTestDir(t)
	i, w := -1, 0
	for j := range set.N() {
		if m, err := set.Meta(j); err == nil && m.H > 16 {
			i, w = j, m.W
			break
		}
	}
	if i < 0 {
		t.Fatal("no sample taller than one band")
	}
	path := filepath.Join(dir, fmt.Sprintf("%06d.sjpg", i))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	top := imaging.Rect{W: w, H: 16}
	flipped := false
	for bit := range 8 {
		bad := bytes.Clone(data)
		bad[len(bad)-1] ^= 0x80 >> bit
		if _, err := imaging.Decode(bad); err == nil {
			continue
		}
		crop, err := imaging.DecodeCropResize(bad, top, 8, 8)
		if err != nil {
			t.Fatalf("bit %d of the last byte: a crop of the first band refused: %v", bit, err)
		}
		crop.Release()
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped = true
		break
	}
	if !flipped {
		t.Fatal("no bit of the last byte makes Decode refuse the sample")
	}
	ds, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Materialize(); !errors.Is(err, imaging.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Errorf("Materialize err %v, want ErrCorrupt naming %s", err, filepath.Base(path))
	}
}
