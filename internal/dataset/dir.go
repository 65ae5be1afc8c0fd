package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/imaging"
)

// On-disk dataset layout: one SJPG file per sample plus manifest.json.
// datagen writes it; sophon-server can serve straight from it.

// ManifestEntry describes one stored sample.
type ManifestEntry struct {
	ID      uint32 `json:"id"`
	File    string `json:"file"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	Bytes   int    `json:"bytes"`
	Quality int    `json:"quality"`
}

// Manifest is the dataset directory's index.
type Manifest struct {
	Name       string          `json:"name"`
	Seed       uint64          `json:"seed"`
	N          int             `json:"n"`
	TotalBytes int64           `json:"total_bytes"`
	Samples    []ManifestEntry `json:"samples"`
}

// ManifestFile is the index file name inside a dataset directory.
const ManifestFile = "manifest.json"

// WriteDir materializes an image set into dir: numbered .sjpg files plus a
// manifest. It creates dir if needed.
func WriteDir(s *ImageSet, dir string, seed uint64) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: mkdir: %w", err)
	}
	m := &Manifest{Name: s.Name(), Seed: seed, N: s.N(), Samples: make([]ManifestEntry, s.N())}
	err := ForEach(s.N(), func(i int) error {
		raw, err := s.Raw(i)
		if err != nil {
			return err
		}
		meta := s.metas[i]
		file := fmt.Sprintf("%06d.sjpg", i)
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			return fmt.Errorf("dataset: write sample %d: %w", i, err)
		}
		m.Samples[i] = ManifestEntry{
			ID: uint32(i), File: file, Width: meta.W, Height: meta.H,
			Bytes: len(raw), Quality: meta.Quality,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range m.Samples {
		m.TotalBytes += int64(e.Bytes)
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), blob, 0o644); err != nil {
		return nil, fmt.Errorf("dataset: write manifest: %w", err)
	}
	return m, nil
}

// DirSet serves samples from an on-disk dataset directory.
type DirSet struct {
	dir      string
	manifest Manifest
}

// LoadDir opens a dataset directory written by WriteDir.
func LoadDir(dir string) (*DirSet, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("dataset: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("dataset: parse manifest: %w", err)
	}
	if m.N <= 0 || len(m.Samples) != m.N {
		return nil, fmt.Errorf("dataset: manifest claims %d samples, lists %d", m.N, len(m.Samples))
	}
	for i, s := range m.Samples {
		if int(s.ID) != i {
			return nil, fmt.Errorf("dataset: manifest sample %d has id %d", i, s.ID)
		}
		if s.File == "" || filepath.Base(s.File) != s.File {
			return nil, fmt.Errorf("dataset: manifest sample %d has unsafe file %q", i, s.File)
		}
	}
	return &DirSet{dir: dir, manifest: m}, nil
}

// Name returns the dataset name.
func (s *DirSet) Name() string { return s.manifest.Name }

// N returns the number of samples.
func (s *DirSet) N() int { return s.manifest.N }

// TotalBytes returns the summed stored size from the manifest.
func (s *DirSet) TotalBytes() int64 { return s.manifest.TotalBytes }

// Raw reads sample i's stored bytes from disk. A file whose SJPG header a
// build cannot read (imaging.ErrUnsupported: a directory an older build
// wrote) or whose dimensions are not the manifest's (imaging.ErrCorrupt) is
// refused here, so that a server refuses the directory at start-up rather
// than failing every fetch of it.
func (s *DirSet) Raw(i int) ([]byte, error) {
	if i < 0 || i >= s.manifest.N {
		return nil, fmt.Errorf("dataset: sample %d out of range [0, %d)", i, s.manifest.N)
	}
	entry := s.manifest.Samples[i]
	data, err := os.ReadFile(filepath.Join(s.dir, entry.File))
	if err != nil {
		return nil, fmt.Errorf("dataset: read sample %d: %w", i, err)
	}
	if entry.Bytes != 0 && len(data) != entry.Bytes {
		return nil, fmt.Errorf("dataset: sample %d is %d bytes, manifest says %d", i, len(data), entry.Bytes)
	}
	if len(data) == 0 {
		return nil, errors.New("dataset: empty sample file")
	}
	w, h, err := imaging.DecodeDims(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: sample %d: %w", i, err)
	}
	if w != entry.Width || h != entry.Height {
		return nil, fmt.Errorf("dataset: sample %d is %dx%d, manifest says %dx%d: %w", i, w, h, entry.Width, entry.Height, imaging.ErrCorrupt)
	}
	return data, nil
}

// Materialize loads every sample into memory — what the storage server does
// at startup, mirroring the paper's RAM-cached datasets.
func (s *DirSet) Materialize() ([][]byte, error) {
	out := make([][]byte, s.N())
	err := ForEach(len(out), func(i int) (err error) {
		out[i], err = s.Raw(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
