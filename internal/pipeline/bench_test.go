package pipeline

import (
	"testing"

	"repro/internal/imaging"
)

func benchRaw(b *testing.B, w, h int) []byte {
	b.Helper()
	im, err := imaging.Synthesize(imaging.SynthParams{W: w, H: h, Detail: 0.5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

func BenchmarkFullPipeline640x480(b *testing.B) {
	raw := benchRaw(b, 640, 480)
	p := DefaultStandard()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Run(raw, Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkPrefixDecodeCrop(b *testing.B) {
	raw := benchRaw(b, 640, 480)
	p := DefaultStandard()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.RunRange(RawArtifact(raw), 0, 2, Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkTraceInstrumentation(b *testing.B) {
	raw := benchRaw(b, 320, 240)
	p := DefaultStandard()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := p.Trace(raw, Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkArtifactEncodeImage224(b *testing.B) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 224, H: 224, Detail: 0.5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	a := imageArtifact(im)
	b.SetBytes(int64(a.WireSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AppendEncode(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactDecodeImage224(b *testing.B) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 224, H: 224, Detail: 0.5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := imageArtifact(im).AppendEncode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeArtifact(enc)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}
