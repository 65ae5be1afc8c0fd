package imaging_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// sjprV1 hand-builds the container SJPR version 1 wrote for a 2×2 image at
// two scans: six plane values, the base scan their DEFLATEd residuals, the
// refinement scan one DEFLATEd *byte* per bit, index CRCs valid. Version 1's
// reader decoded it to pixels.
func sjprV1(t *testing.T, version byte) []byte {
	t.Helper()
	deflate := func(plain ...byte) []byte {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(plain)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	scans := [][]byte{deflate(40, 1, 0, 1, 16, 16), deflate(0, 1, 1, 0, 1, 0)}
	out := append([]byte("SJPR"), version, imaging.DefaultQuality)
	out = binary.BigEndian.AppendUint32(out, 2)
	out = binary.BigEndian.AppendUint32(out, 2)
	out = append(out, uint8(len(scans)), 0, 0)
	for _, s := range scans {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(s, crc32.MakeTable(crc32.Castagnoli)))
	}
	return append(out, bytes.Join(scans, nil)...)
}

// TestStaleFormatRefusedByName: a version-1 container gets ErrUnsupported,
// naming the container and both versions, from everything that reads one —
// never pixels, never a prefix. There is one reader; a stale store is rebuilt.
func TestStaleFormatRefusedByName(t *testing.T) {
	v1 := sjprV1(t, 1)
	if !imaging.IsProgressive(v1) {
		t.Fatal("the hand-built container lost its magic")
	}
	for name, call := range map[string]func() (any, error){
		"ProgressiveInfo": func() (any, error) {
			_, _, _, _, present, err := imaging.ProgressiveInfo(v1)
			return present, err
		},
		"PrefixSize":        func() (any, error) { return imaging.PrefixSize(v1, 1) },
		"SlicePrefix":       func() (any, error) { return imaging.SlicePrefix(v1, 1) },
		"DecodeAtFidelity":  func() (any, error) { return imaging.DecodeAtFidelity(v1, 1) },
		"DecodeProgressive": func() (any, error) { im, _, err := imaging.DecodeProgressive(v1); return im, err },
		"DecodeProgressiveCropResize": func() (any, error) {
			return imaging.DecodeProgressiveCropResize(v1, imaging.Rect{W: 1, H: 1}, 1, 1)
		},
		"Pipeline.Run": func() (any, error) {
			a, err := pipeline.DefaultStandard().Run(v1, pipeline.Seed{Job: 1, Epoch: 1, Sample: 1})
			return a.Kind, err
		},
	} {
		got, err := call()
		if !errors.Is(err, imaging.ErrUnsupported) || !strings.Contains(err.Error(), "SJPR version 1, this build reads 2") {
			t.Errorf("%s: %v (err %v), want ErrUnsupported naming SJPR version 1 and 2", name, got, err)
		}
	}
	if n, ok := imaging.FidelityPrefixSize(v1, 1); ok {
		t.Errorf("FidelityPrefixSize sliced a version-1 container to %d bytes", n)
	}

	// The same scans under this build's version byte are not a container
	// either: the refinement scan inflates to six bytes where one is due.
	if im, _, err := imaging.DecodeProgressive(sjprV1(t, 2)); !errors.Is(err, imaging.ErrCorrupt) {
		t.Errorf("byte-a-bit scans under version 2: image %v, err %v, want ErrCorrupt", im != nil, err)
	}

	// The text is the container's, not SJPG's, and SJPG's own names SJPG.
	sjpg, err := imaging.EncodeDefault(imaging.MustNew(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	sjpg[4] = 7
	if _, err := imaging.Decode(sjpg); !errors.Is(err, imaging.ErrUnsupported) || !strings.Contains(err.Error(), "SJPG version 7, this build reads 1") {
		t.Errorf("SJPG version 7: err %v", err)
	}
	if strings.Contains(imaging.ErrUnsupported.Error(), "SJPG") {
		t.Errorf("ErrUnsupported still names one container: %q", imaging.ErrUnsupported)
	}
}
