package imaging_test

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// A 3×2 image at DefaultQuality as the previous formats stored it: an SJPG
// version 1 stream (planes in DEFLATE blocks) and a two-scan SJPR version 2
// container (scans DEFLATE-compressed). Both decoded to pixels in the build
// that wrote them.
const (
	sjpgV1Hex = "534a504701500000000300000002000600f9ff0f37de2629c6000200fdff1e02010200fdff1b0f"
	sjprV2Hex = "534a5052025000000003000000020200000000001050316fb8000000088373cf086297792f2cfa989f919703100000ffffe26404040000ffff"
)

func staleStream(t *testing.T, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// staleReaders calls everything that reads data, SJPG or SJPR as sjpr says,
// and returns each one's error by name.
func staleReaders(data []byte, sjpr bool) map[string]error {
	rect := imaging.Rect{W: 1, H: 1}
	errs := map[string]error{}
	_, errs["Pipeline.Run"] = pipeline.DefaultStandard().Run(data, pipeline.Seed{Job: 1, Epoch: 1, Sample: 1})
	if !sjpr {
		_, errs["Decode"] = imaging.Decode(data)
		_, errs["DecodeCropResize"] = imaging.DecodeCropResize(data, rect, 1, 1)
		_, _, errs["DecodeDims"] = imaging.DecodeDims(data)
		return errs
	}
	_, _, _, _, _, errs["ProgressiveInfo"] = imaging.ProgressiveInfo(data)
	_, errs["PrefixSize"] = imaging.PrefixSize(data, 1)
	_, errs["SlicePrefix"] = imaging.SlicePrefix(data, 1)
	_, errs["DecodeAtFidelity"] = imaging.DecodeAtFidelity(data, 1)
	_, _, errs["DecodeProgressive"] = imaging.DecodeProgressive(data)
	_, errs["DecodeProgressiveCropResize"] = imaging.DecodeProgressiveCropResize(data, rect, 1, 1)
	return errs
}

// TestStaleFormatRefusedByName: a stream of the previous SJPG version and a
// container of the previous SJPR version get ErrUnsupported, naming the
// format and both versions, from everything that reads one — never pixels,
// never a prefix. There is no reader for an old version; a stale store is
// rebuilt. The same bytes under this build's version byte are not streams of
// this format: ErrCorrupt.
func TestStaleFormatRefusedByName(t *testing.T) {
	for _, c := range []struct {
		name    string
		data    []byte
		sjpr    bool
		stale   string
		current byte
	}{
		{"SJPG", staleStream(t, sjpgV1Hex), false, "SJPG version 1, this build reads 2", 2},
		{"SJPR", staleStream(t, sjprV2Hex), true, "SJPR version 2, this build reads 3", 3},
	} {
		for reader, err := range staleReaders(c.data, c.sjpr) {
			if !errors.Is(err, imaging.ErrUnsupported) || !strings.Contains(err.Error(), c.stale) {
				t.Errorf("%s %s: err %v, want ErrUnsupported naming %q", c.name, reader, err, c.stale)
			}
		}
		c.data[4] = c.current
		for reader, err := range staleReaders(c.data, c.sjpr) {
			if reader != "DecodeDims" && !errors.Is(err, imaging.ErrCorrupt) {
				t.Errorf("%s %s under version %d: err %v, want ErrCorrupt", c.name, reader, c.current, err)
			}
		}
	}
	if n, ok := imaging.FidelityPrefixSize(staleStream(t, sjprV2Hex), 1); ok {
		t.Errorf("FidelityPrefixSize sliced a version-2 container to %d bytes", n)
	}
	if strings.Contains(imaging.ErrUnsupported.Error(), "SJPG") {
		t.Errorf("ErrUnsupported still names one container: %q", imaging.ErrUnsupported)
	}
}
