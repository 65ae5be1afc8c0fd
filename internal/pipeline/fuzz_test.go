package pipeline

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// FuzzDecodeArtifact: the artifact parser must never panic or size a buffer
// from bytes that are not there, every rejection is errCorrupt, and accepted
// artifacts must re-encode losslessly.
func FuzzDecodeArtifact(f *testing.F) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 8, H: 6, Detail: 0.4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	packed, err := imageArtifact(im).AppendEncode(nil)
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
	if enc, err := tensorArtifact(tt).AppendEncode(nil); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{99, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
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

// FuzzProfileMatchesRun: the profiling kernel accepts exactly what Run
// accepts, failing with Run's error, and returns Run's bytes, whose encoded
// size is its last stage's Shipped.
func FuzzProfileMatchesRun(f *testing.F) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 40, H: 35, Detail: 0.5, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	one, err := imaging.EncodeDefault(im)
	if err != nil {
		f.Fatal(err)
	}
	deep, err := imaging.EncodeProgressive(im, imaging.DefaultQuality, imaging.MaxScans)
	if err != nil {
		f.Fatal(err)
	}
	// An image three strips wide, so that cuts and flips land in a scan-0
	// band's later strips and the crop reads some strips and not others.
	wideIm, err := imaging.Synthesize(imaging.SynthParams{W: 150, H: 35, Detail: 0.5, Seed: 4})
	if err != nil {
		f.Fatal(err)
	}
	wide, err := imaging.EncodeDefault(wideIm)
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{one, deep, wide} {
		f.Add(raw, uint64(0))
		for cut := 0; cut < len(raw); cut += 23 {
			f.Add(raw[:cut], uint64(cut))
		}
		for bit := 0; bit < 8*len(raw); bit += 61 {
			d := append([]byte(nil), raw...)
			d[bit/8] ^= 1 << (bit % 8)
			f.Add(d, uint64(bit))
		}
	}
	f.Add([]byte{}, uint64(1))
	p := Standard(StandardOptions{CropSize: 24, FlipP: -1})
	f.Fuzz(func(t *testing.T, raw []byte, sample uint64) {
		seed := Seed{Job: 2, Epoch: 1, Sample: sample}
		want, runErr := p.Run(raw, seed)
		got, st, err := p.Profile(raw, seed)
		if (err == nil) != (runErr == nil) || err != nil && err.Error() != runErr.Error() {
			t.Fatalf("Profile err %v, Run err %v", err, runErr)
		}
		if err != nil {
			return
		}
		defer want.Release()
		defer got.Release()
		a, err := want.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("Profile's artifact differs from Run's")
		}
		if st.Shipped[p.Len()] != len(b) {
			t.Fatalf("last stage ships %d bytes, encodes to %d", st.Shipped[p.Len()], len(b))
		}
	})
}
