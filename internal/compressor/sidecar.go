package compressor

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/imaging"
)

// MaterializeProgressive renders every sample of an image set as a
// progressive SJPR container holding scans scans, with the sample's label
// record embedded as a sidecar. Sidecars are compressed with one byte-pair
// dictionary trained over the whole label corpus (TrainDict) — the
// dictionary amortizes across the dataset and is returned for out-of-band
// distribution. Every byte-prefix fetch of a container still carries the
// full sidecar, because the header region precedes every scan.
func MaterializeProgressive(set *dataset.ImageSet, scans int) ([][]byte, *Dict, error) {
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
		return nil, nil, fmt.Errorf("compressor: train sidecar dictionary: %w", err)
	}
	out := make([][]byte, set.N())
	err = dataset.ForEach(len(out), func(i int) error {
		m, err := set.Meta(i)
		if err != nil {
			return err
		}
		im, err := set.Image(i)
		if err != nil {
			return err
		}
		out[i], err = imaging.EncodeProgressiveSidecar(im, m.Quality, scans, dict.Encode(labels[i]))
		if err != nil {
			return fmt.Errorf("compressor: materialize progressive sample %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, dict, nil
}

// SidecarLabel extracts and decompresses the label record embedded in a
// progressive container produced by MaterializeProgressive.
func SidecarLabel(container []byte, dict *Dict) ([]byte, error) {
	enc, err := imaging.ProgressiveSidecar(container)
	if err != nil {
		return nil, err
	}
	return dict.Decode(enc)
}
