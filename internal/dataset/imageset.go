package dataset

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/imaging"
)

// ImageMeta describes one real-tier sample: enough to regenerate its bytes
// deterministically.
type ImageMeta struct {
	ID      uint32
	W, H    int
	Detail  float64
	Seed    uint64
	Quality int
}

// ImageSet is the real-tier dataset: deterministic synthetic photos encoded
// with the SJPG codec. Raw regenerates a sample's stored bytes on demand;
// Materialize renders the whole set (what the storage server does when it
// caches the dataset in memory, as in the paper's setup).
type ImageSet struct {
	name  string
	metas []ImageMeta
}

// SyntheticOptions configures NewSyntheticImageSet.
type SyntheticOptions struct {
	Name   string
	N      int
	Seed   uint64
	MinDim int // smallest image side; 0 means 80
	MaxDim int // largest image side; 0 means 480
}

// NewSyntheticImageSet builds a deterministic image set: dimensions uniform
// in [MinDim, MaxDim], texture detail uniform in [0, 1] (driving raw-size
// variance the way photo content does).
func NewSyntheticImageSet(opts SyntheticOptions) (*ImageSet, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("dataset: image set needs N > 0, got %d", opts.N)
	}
	if opts.MinDim == 0 {
		opts.MinDim = 80
	}
	if opts.MaxDim == 0 {
		opts.MaxDim = 480
	}
	if opts.MinDim < 8 || opts.MaxDim < opts.MinDim {
		return nil, fmt.Errorf("dataset: bad dim range [%d, %d]", opts.MinDim, opts.MaxDim)
	}
	if opts.Name == "" {
		opts.Name = "synthetic"
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xda94_2042))
	metas := make([]ImageMeta, opts.N)
	span := opts.MaxDim - opts.MinDim + 1
	for i := range metas {
		metas[i] = ImageMeta{
			ID:      uint32(i),
			W:       opts.MinDim + rng.IntN(span),
			H:       opts.MinDim + rng.IntN(span),
			Detail:  rng.Float64(),
			Seed:    rng.Uint64(),
			Quality: imaging.DefaultQuality,
		}
	}
	return &ImageSet{name: opts.Name, metas: metas}, nil
}

// Name returns the set name.
func (s *ImageSet) Name() string { return s.name }

// N returns the number of samples.
func (s *ImageSet) N() int { return len(s.metas) }

// Meta returns the descriptor of sample i.
func (s *ImageSet) Meta(i int) (ImageMeta, error) {
	if i < 0 || i >= len(s.metas) {
		return ImageMeta{}, fmt.Errorf("dataset: sample %d out of range [0, %d)", i, len(s.metas))
	}
	return s.metas[i], nil
}

// Image renders sample i's pixels.
func (s *ImageSet) Image(i int) (*imaging.Image, error) {
	m, err := s.Meta(i)
	if err != nil {
		return nil, err
	}
	return imaging.Synthesize(imaging.SynthParams{W: m.W, H: m.H, Detail: m.Detail, Seed: m.Seed})
}

// Raw renders and encodes sample i — the bytes as stored on the storage
// server.
func (s *ImageSet) Raw(i int) ([]byte, error) {
	m, err := s.Meta(i)
	if err != nil {
		return nil, err
	}
	im, err := s.Image(i)
	if err != nil {
		return nil, err
	}
	return imaging.Encode(im, m.Quality)
}

// Materialize renders every sample's stored bytes, keyed by sample index.
func (s *ImageSet) Materialize() ([][]byte, error) {
	out := make([][]byte, len(s.metas))
	err := ForEach(len(out), func(i int) (err error) {
		if out[i], err = s.Raw(i); err != nil {
			return fmt.Errorf("dataset: materialize sample %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
