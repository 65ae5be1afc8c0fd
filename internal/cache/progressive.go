package cache

import (
	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// truncateToFidelity returns the byte prefix of a cached raw-artifact
// encoding (kind byte + progressive container) that a fetch withholding
// drop refinement scans would have shipped. The result aliases data — the
// cache's entries are immutable and decoding copies, so sharing the backing
// array is safe. ok is false when the entry is not a progressive container,
// does not hold enough scans to cover the request, or drop is zero (the
// caller should use the full entry).
func truncateToFidelity(data []byte, drop uint8) ([]byte, bool) {
	if len(data) < 1 || data[0] != byte(pipeline.KindRaw) {
		return nil, false
	}
	n, ok := imaging.FidelityPrefixSize(data[1:], int(drop))
	if !ok {
		return nil, false
	}
	return data[:1+n], true
}
