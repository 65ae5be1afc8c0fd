package pipeline

import (
	"errors"
	"testing"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// FuzzDecodeArtifact: the artifact parser must never panic or size a buffer
// from bytes that are not there, every rejection is ErrCorrupt, and accepted
// artifacts must re-encode losslessly.
func FuzzDecodeArtifact(f *testing.F) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 8, H: 6, Detail: 0.4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	packed, err := ImageArtifact(im).AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed)
	// The packed image truncated at every byte, with each header bit (kind,
	// W, H, and behind them the first plane's count of code-length bytes and
	// the code lengths themselves) flipped, and with trailing garbage.
	for cut := 0; cut < len(packed); cut++ {
		f.Add(packed[:cut])
	}
	for bit := 0; bit < 8*(imageHeader+1+int(packed[imageHeader])); bit++ {
		d := append([]byte(nil), packed...)
		d[bit/8] ^= 1 << (bit % 8)
		f.Add(d)
	}
	f.Add(append(append([]byte(nil), packed...), 0))
	f.Add(append(append([]byte(nil), packed...), packed...))
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(append([]byte{byte(KindImage), 16, 0, 0, 0, 16, 0, 0, 0}, all...))
	if enc, err := RawArtifact([]byte{1, 2, 3}).AppendEncode(nil); err == nil {
		f.Add(enc)
	}
	tt, _ := tensor.New(1, 2, 2)
	if enc, err := TensorArtifact(tt).AppendEncode(nil); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{99, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection is not ErrCorrupt: %v", err)
			}
			return
		}
		enc, err := a.AppendEncode(nil)
		if err != nil {
			t.Fatalf("accepted artifact failed to encode: %v", err)
		}
		b, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact failed to decode: %v", err)
		}
		if !a.Equal(b) {
			t.Fatal("artifact changed across round trip")
		}
		// WireSize is exact, except for images: the unpacked size, which the
		// packed encoding exceeds only by a stored plane's marker byte.
		if a.Kind == KindImage {
			if len(enc) > a.EncodeBound() {
				t.Fatalf("image encoded to %d bytes, bound %d", len(enc), a.EncodeBound())
			}
		} else if len(enc) != a.WireSize() {
			t.Fatalf("WireSize %d != encoded %d", a.WireSize(), len(enc))
		}
	})
}
