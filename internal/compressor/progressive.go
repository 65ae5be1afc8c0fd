// Package compressor holds a byte-pair dictionary coder (Dict) and the
// routine that materialises a progressive store, which remains for the
// benchmark module, still compiled against MaterializeProgressive. Image
// artifacts on the wire are packed elsewhere (pipeline.Artifact.AppendEncode,
// imaging.AppendPacked).
package compressor

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/imaging"
)

// MaterializeProgressive encodes every sample of an image set at its quality
// as a container of scans scans, on every core (dataset.ForEach). The second
// result is always nil.
func MaterializeProgressive(set *dataset.ImageSet, scans int) ([][]byte, any, error) {
	out := make([][]byte, set.N())
	err := dataset.ForEach(len(out), func(i int) error {
		m, err := set.Meta(i)
		if err != nil {
			return err
		}
		im, err := set.Image(i)
		if err == nil {
			out[i], err = imaging.EncodeProgressive(im, m.Quality, scans)
		}
		if err != nil {
			return fmt.Errorf("compressor: materialize progressive sample %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, nil, nil
}
