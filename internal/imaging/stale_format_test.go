package imaging_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// 3×2 images at DefaultQuality as the previous formats stored them: SJPG
// version 1 (planes in DEFLATE blocks), version 2 (planes coded without bands
// or a band index), version 3 (planes in bands behind a band index, no scans)
// and version 4 (1–4 scans behind one index, each plane's bands across the
// whole width) streams, and two-scan SJPR containers of version 2 (scans
// DEFLATE-compressed) and version 3 (scans coded as SJPG version 2's planes,
// behind a sidecar and a scan index). Each decoded to pixels in the build that
// wrote it. sjpgV4RowsHex is the row-sliced form version 4 shipped of a 3×20
// image for a crop of rows 17–18: bands 1–2 and the first value of band 0.
const (
	sjpgV1Hex     = "534a504701500000000300000002000600f9ff0f37de2629c6000200fdff1e02010200fdff1b0f"
	sjpgV2Hex     = "534a504702500000000300000002000f37de2629c6001e02001b0f"
	sjpgV3Hex     = "534a50470350000000030000000206073003100310001d1f00f723fd0023fe001ffa"
	sjpgV4Hex     = "534a50470450000000030000000201076a477678000000001438de2729c6001e02001b0f"
	sjpgV4RowsHex = "534a5047845000000003000000140107ff6f82f300000001010200140f11290037b826de1118c638001e05f3f80b001b07fb01f7"
	sjprV2Hex     = "534a5052025000000003000000020200000000001050316fb8000000088373cf086297792f2cfa989f919703100000ffffe26404040000ffff"
	sjprV3Hex     = "534a5052035000000003000000020200000000000dc2d30945000000035b870585000e1000fc11ff0011ff000ffd00d103"
)

func staleStream(t *testing.T, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// staleReaders calls everything that reads a stored object and returns each
// one's error by name. LoadDir is a dataset directory holding data as its one
// sample, loaded and materialised.
func staleReaders(t *testing.T, data []byte) map[string]error {
	rect := imaging.Rect{W: 1, H: 1}
	errs := map[string]error{}
	_, errs["Pipeline.Run"] = pipeline.DefaultStandard().Run(data, pipeline.Seed{Job: 1, Epoch: 1, Sample: 1})
	_, errs["Decode"] = imaging.Decode(data)
	_, errs["DecodeCropResize"] = imaging.DecodeCropResize(data, rect, 1, 1)
	_, _, errs["DecodeDims"] = imaging.DecodeDims(data)
	errs["LoadDir"] = loadDirOf(t, data)
	_, errs["PrefixSize"] = imaging.PrefixSize(data, 1)
	_, errs["SlicePrefix"] = imaging.SlicePrefix(data, 1)
	_, errs["DecodeAtFidelity"] = imaging.DecodeAtFidelity(data, 1)
	_, _, _, _, _, errs["ProgressiveInfo"] = imaging.ProgressiveInfo(data)
	_, _, errs["DecodeProgressive"] = imaging.DecodeProgressive(data)
	return errs
}

// loadDirOf writes data, a 3×2 image's stream, as the one sample of a dataset
// directory and returns what loading it fails with.
func loadDirOf(t *testing.T, data []byte) error {
	dir := t.TempDir()
	m := dataset.Manifest{Name: "stale", N: 1, TotalBytes: int64(len(data)), Samples: []dataset.ManifestEntry{
		{File: "000000.sjpg", Width: 3, Height: 2, Bytes: len(data), Quality: imaging.DefaultQuality}}}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dataset.ManifestFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000000.sjpg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadDir(dir)
	if err == nil {
		_, err = ds.Materialize()
	}
	return err
}

// TestStaleFormatRefusedByName: streams of the previous SJPG versions and
// containers of the previous SJPR versions get ErrUnsupported, naming the
// format and both versions, from everything that reads one — never pixels,
// never a prefix, never a loaded directory. There is no reader for an old
// version; a stale store is rebuilt. The same bytes under this build's
// version byte are not streams of this format: ErrCorrupt. Version 4's
// row-sliced form is refused by name too, and Slice copies either version 4
// stream whole.
func TestStaleFormatRefusedByName(t *testing.T) {
	for _, c := range []struct {
		name, hex, stale string
	}{
		{"SJPG v1", sjpgV1Hex, "SJPG version 1, this build reads 5"},
		{"SJPG v2", sjpgV2Hex, "SJPG version 2, this build reads 5"},
		{"SJPG v3", sjpgV3Hex, "SJPG version 3, this build reads 5"},
		{"SJPG v4", sjpgV4Hex, "SJPG version 4, this build reads 5"},
		{"SJPR v2", sjprV2Hex, "SJPR version 2, this build reads 5"},
		{"SJPR v3", sjprV3Hex, "SJPR version 3, this build reads 5"},
	} {
		data := staleStream(t, c.hex)
		for reader, err := range staleReaders(t, data) {
			if !errors.Is(err, imaging.ErrUnsupported) || !strings.Contains(err.Error(), c.stale) {
				t.Errorf("%s %s: err %v, want ErrUnsupported naming %q", c.name, reader, err, c.stale)
			}
		}
		if n, ok := imaging.FidelityPrefixSize(data, 1); ok {
			t.Errorf("FidelityPrefixSize sliced a %s stream to %d bytes", c.name, n)
		}
		data[4] = 5
		for reader, err := range staleReaders(t, data) {
			if reader == "DecodeDims" && c.name == "SJPG v4" && err == nil {
				continue // version 5 kept version 4's header, the one thing DecodeDims reads
			}
			if !errors.Is(err, imaging.ErrCorrupt) {
				t.Errorf("%s %s under version 5: err %v, want ErrCorrupt", c.name, reader, err)
			}
		}
	}
	for name, h := range map[string]string{"SJPG v4": sjpgV4Hex, "SJPG v4 row-sliced": sjpgV4RowsHex} {
		data := staleStream(t, h)
		rect := imaging.Rect{Y: 1, W: 3, H: 1}
		_, decodeErr := imaging.Decode(data)
		_, cropErr := imaging.DecodeCropResize(data, rect, 1, 1)
		for reader, err := range map[string]error{"Decode": decodeErr, "DecodeCropResize": cropErr} {
			if !errors.Is(err, imaging.ErrUnsupported) || !strings.Contains(err.Error(), "SJPG version 4, this build reads 5") {
				t.Errorf("%s %s: err %v, want ErrUnsupported naming version 4", name, reader, err)
			}
		}
		dst := make([]byte, len(data))
		if n := imaging.Slice(dst, data, 1, rect); n != len(data) || !bytes.Equal(dst, data) {
			t.Errorf("%s: Slice shipped %d of its %d bytes, or other bytes", name, n, len(data))
		}
	}
	if strings.Contains(imaging.ErrUnsupported.Error(), "SJPG") {
		t.Errorf("ErrUnsupported still names one container: %q", imaging.ErrUnsupported)
	}
}
