package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/imaging"
	"repro/internal/raceflag"
	"repro/internal/tensor"
)

// encodeSample builds SJPG bytes for a synthetic image.
func encodeSample(t testing.TB, w, h int, detail float64, seed uint64) []byte {
	t.Helper()
	im, err := imaging.Synthesize(imaging.SynthParams{W: w, H: h, Detail: detail, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestArtifactEncodeDecodeRaw(t *testing.T) {
	a := RawArtifact([]byte{1, 2, 3})
	enc, err := a.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != a.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), a.WireSize())
	}
	got, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Fatal("raw artifact round trip mismatch")
	}
}

func TestArtifactEncodeDecodeImage(t *testing.T) {
	im, _ := imaging.Synthesize(imaging.SynthParams{W: 13, H: 7, Detail: 0.5, Seed: 1})
	a := imageArtifact(im)
	enc, err := a.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Images travel packed: kind, W, H, then fewer bytes than the pixels.
	if a.WireSize() != ImageWireSize(13, 7) || len(enc) >= a.WireSize() {
		t.Fatalf("encoded %d bytes, unpacked size is %d (law %d)", len(enc), a.WireSize(), ImageWireSize(13, 7))
	}
	if Kind(enc[0]) != KindImage || binary.LittleEndian.Uint32(enc[1:5]) != 13 || binary.LittleEndian.Uint32(enc[5:9]) != 7 {
		t.Fatalf("image header % x", enc[:9])
	}
	got, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Fatal("image artifact round trip mismatch")
	}
}

// TestArtifactEncodeDecodePlanes: the decoded stage travels as its planes —
// kind, W, H, the two shifts, then 1.5 B a pixel — priced at the law's
// decoded image, and the trainer's crop of the planes it receives is the
// server's.
func TestArtifactEncodeDecodePlanes(t *testing.T) {
	raw := encodeSample(t, 13, 7, 0.5, 1)
	p := Standard(StandardOptions{CropSize: 16, FlipP: -1})
	seed := Seed{Job: 1, Epoch: 2, Sample: 3}
	a, err := p.RunRange(RawArtifact(raw), 0, 1, seed)
	if err != nil || a.Kind != KindPlanes {
		t.Fatalf("the decode made %v, %v", a.Kind, err)
	}
	enc, err := a.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.WireSize() != ImageWireSize(13, 7) || len(enc) != a.EncodeBound() || len(enc) != 1+10+13*7+2*7*4 {
		t.Fatalf("encoded %d bytes, bound %d, WireSize %d", len(enc), a.EncodeBound(), a.WireSize())
	}
	if Kind(enc[0]) != KindPlanes || binary.LittleEndian.Uint32(enc[1:5]) != 13 || binary.LittleEndian.Uint32(enc[5:9]) != 7 {
		t.Fatalf("planes header % x", enc[:11])
	}
	if p.CutBound(13, 7, 1) != len(enc) {
		t.Fatalf("CutBound at 1 is %d, the planes encode to %d", p.CutBound(13, 7, 1), len(enc))
	}
	got, err := DecodeArtifact(enc)
	if err != nil || !got.Equal(a) {
		t.Fatalf("planes round trip: %v", err)
	}
	want, err := p.Run(raw, seed)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := p.RunRange(got, 1, p.Len(), seed); err != nil || !out.Equal(want) {
		t.Fatalf("the received planes finish to another tensor: %v", err)
	}
	if _, bad := planesSeeds(t); len(bad) == 0 {
		t.Fatal("no damaged planes")
	} else {
		for name, d := range bad {
			if _, err := DecodeArtifact(d); !errors.Is(err, errCorrupt) {
				t.Errorf("planes %s: %v, want errCorrupt", name, err)
			}
		}
	}
}

// Property: the image wire form is lossless at any geometry — 1×1, single
// rows and columns, odd widths — and on any content, from one colour to
// noise, which Huffman coding cannot shrink and the encoder stores.
func TestArtifactImageRoundTripProperty(t *testing.T) {
	f := func(w, h, class uint8, seed uint64) bool {
		iw, ih := int(w)%40+1, int(h)%40+1
		im, err := imaging.Synthesize(imaging.SynthParams{W: iw, H: ih, Detail: float64(seed%10) / 10, Seed: seed})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		switch class % 3 {
		case 1: // one colour
			for i := range im.Pix {
				im.Pix[i] = im.Pix[i%imaging.Channels]
			}
		case 2: // noise
			for i := range im.Pix {
				im.Pix[i] = uint8(rng.Uint32())
			}
		}
		a := imageArtifact(im)
		enc, err := a.AppendEncode(nil)
		if err != nil {
			return false
		}
		got, err := DecodeArtifact(enc)
		if err != nil {
			return false
		}
		defer got.Release()
		return got.Equal(a) && len(enc) <= a.EncodeBound()
	}
	for _, dims := range [][2]uint8{{0, 0}, {0, 8}, {8, 0}, {12, 6}} { // 1×1, 1×9, 9×1, 13×7
		for class := uint8(0); class < 3; class++ {
			if !f(dims[0], dims[1], class, 7) {
				t.Fatalf("round trip failed at %dx%d, class %d", dims[0]+1, dims[1]+1, class)
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func noiseArtifact(w, h int, seed uint64) Artifact {
	noise := imaging.MustNew(w, h)
	rng := rand.New(rand.NewPCG(seed, 4))
	for i := range noise.Pix {
		noise.Pix[i] = uint8(rng.Uint32())
	}
	return imageArtifact(noise)
}

// TestImageEncodeFitsItsPooledBuffer: the executor and the cache encode into
// bufpool.GetBytes(EncodeBound()). On the live tier's crops the packed form
// is about 0.37 of that; noise, stored, is exactly it, three bytes over
// WireSize — so a buffer sized by WireSize fits only when its size class
// happens to round up by as much. 134×163 is 65 535 B unpacked and 65 538 B
// stored: a 64 KiB buffer would be regrown and dropped. One such geometry sits
// under every class boundary; AppendEncode must regrow none of them.
func TestImageEncodeFitsItsPooledBuffer(t *testing.T) {
	photo, _ := imaging.Synthesize(imaging.SynthParams{W: 128, H: 128, Detail: 0.5, Seed: 2})
	cases := map[string]Artifact{"photo": imageArtifact(photo), "noise 128x128": noiseArtifact(128, 128, 3)}
	for _, d := range [][2]int{{3, 6}, {6, 227}, {61, 179}, {134, 163}, {79, 553}, {133, 163}, {135, 163}, {134, 162}} {
		cases[fmt.Sprintf("noise %dx%d", d[0], d[1])] = noiseArtifact(d[0], d[1], uint64(d[0]))
	}
	underBoundary := 0
	for name, a := range cases {
		buf := bufpool.GetBytes(a.EncodeBound())
		enc, err := a.AppendEncode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if &enc[0] != &buf[0] {
			t.Errorf("%s: %d encoded bytes regrew a pooled buffer of capacity %d", name, len(enc), cap(buf))
		}
		if name == "photo" {
			if len(enc) > a.WireSize()*3/5 {
				t.Errorf("photo encoded to %d bytes of %d unpacked, want well under", len(enc), a.WireSize())
			}
		} else if len(enc) != a.EncodeBound() || len(enc) != a.WireSize()+imaging.Channels {
			t.Errorf("%s encoded to %d bytes, want stored: WireSize %d and a byte a plane, which is EncodeBound %d", name, len(enc), a.WireSize(), a.EncodeBound())
		}
		bufpool.PutBytes(buf)
		byLaw := bufpool.GetBytes(a.WireSize())
		if len(enc) > cap(byLaw) {
			underBoundary++
		}
		bufpool.PutBytes(byLaw)
	}
	if underBoundary < 5 {
		t.Errorf("%d of the geometries outgrow a buffer sized by WireSize, want the 5 chosen to", underBoundary)
	}
}

// TestCutBoundIsTheCutsEncodeBound: what CutBound reads off a header is the
// EncodeBound of the artifact RunRange makes at every cut, for a crop
// smaller and one larger than the image.
func TestCutBoundIsTheCutsEncodeBound(t *testing.T) {
	raw := encodeSample(t, 90, 60, 0.5, 4)
	for _, crop := range []int{32, 128} {
		p := Standard(StandardOptions{CropSize: crop})
		for split := 1; split <= p.Len(); split++ {
			a, err := p.RunRange(RawArtifact(raw), 0, split, Seed{Job: 1, Epoch: 2, Sample: 3})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.CutBound(90, 60, split), a.EncodeBound(); got != want {
				t.Errorf("crop %d, split %d: CutBound %d, the %s's EncodeBound %d", crop, split, got, a.Kind, want)
			}
			a.Release()
		}
	}
}

func TestArtifactEncodeDecodeTensor(t *testing.T) {
	tt, _ := tensor.New(3, 4, 5)
	tt.Data[(1*tt.H+2)*tt.W+3] = -2.5
	a := tensorArtifact(tt)
	enc, err := a.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != a.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), a.WireSize())
	}
	got, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Fatal("tensor artifact round trip mismatch")
	}
}

func TestDecodeArtifactRejectsCorrupt(t *testing.T) {
	im, _ := imaging.Synthesize(imaging.SynthParams{W: 4, H: 4, Detail: 0, Seed: 1})
	good, _ := imageArtifact(im).AppendEncode(nil)
	withDims := func(w, h uint32) []byte {
		d := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(d[1:5], w)
		binary.LittleEndian.PutUint32(d[5:9], h)
		return d
	}
	cases := map[string][]byte{
		"empty":            {},
		"unknown kind":     {99, 0, 0},
		"short image":      good[:5],
		"header only":      good[:imageHeader],
		"truncated image":  good[:len(good)-1],
		"trailing byte":    append(append([]byte(nil), good...), 0),
		"zero image dims":  withDims(0, 0),
		"dims over cap":    withDims(1<<16+1, 1),
		"dims past uint31": withDims(1<<31, 4),
		"wrong dims":       withDims(4, 5),
		"bad tensor":       {byte(KindTensor), 1, 2, 3},
	}
	for name, c := range cases {
		if _, err := DecodeArtifact(c); !errors.Is(err, errCorrupt) {
			t.Errorf("DecodeArtifact(%s) = %v, want ErrCorrupt", name, err)
		}
	}
	// A 9-byte header may claim 65 536 × 65 536; nothing is sized from it.
	before := bufpool.ByteStats()
	if _, err := DecodeArtifact(withDims(1<<16, 1<<16)[:imageHeader]); !errors.Is(err, errCorrupt) {
		t.Errorf("bare 65536x65536 header: %v, want ErrCorrupt", err)
	}
	if _, err := DecodeArtifact(withDims(1<<16, 1<<16)); !errors.Is(err, errCorrupt) {
		t.Errorf("65536x65536 over a 4x4 payload: %v, want ErrCorrupt", err)
	}
	if after := bufpool.ByteStats(); after != before {
		t.Errorf("an implausible image header reached the buffer arena: %+v -> %+v", before, after)
	}
}

func TestArtifactEqualAcrossKinds(t *testing.T) {
	if RawArtifact([]byte{1}).Equal(imageArtifact(imaging.MustNew(1, 1))) {
		t.Fatal("different kinds reported equal")
	}
	if !RawArtifact(nil).Equal(RawArtifact([]byte{})) {
		t.Fatal("empty raw artifacts should be equal")
	}
}

func TestNewValidatesChaining(t *testing.T) {
	if _, err := newPipeline(); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := newPipeline(toTensorOp{}); err == nil {
		t.Fatal("pipeline starting with image-consumer accepted")
	}
	if _, err := newPipeline(decodeOp{}, decodeOp{}); err == nil {
		t.Fatal("kind-mismatched chain accepted")
	}
	if _, err := newPipeline(decodeOp{}, toTensorOp{}); err == nil {
		t.Fatal("planes handed to an image consumer accepted")
	}
	if _, err := newPipeline(decodeOp{}, newRandomResizedCrop(32), toTensorOp{}, normalizeOp{Mean: tensor.ImageNetMean, Std: tensor.ImageNetStd}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestStandardPipelineShape(t *testing.T) {
	p := DefaultStandard()
	if p.Len() != 5 {
		t.Fatalf("standard pipeline has %d ops", p.Len())
	}
	want := []opID{opDecode, opRandomResizedCrop, opRandomHorizontalFlip, opToTensor, opNormalize}
	for i := range want {
		if got := p.ops[i].name(); got != want[i].String() {
			t.Fatalf("op %d = %s, want %s", i, got, want[i])
		}
	}
}

func TestRunProducesNormalizedTensor(t *testing.T) {
	raw := encodeSample(t, 300, 200, 0.4, 7)
	p := DefaultStandard()
	out, err := p.Run(raw, Seed{Job: 1, Epoch: 1, Sample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindTensor {
		t.Fatalf("output kind %s", out.Kind)
	}
	tt := out.Tensor
	if tt.C != 3 || tt.H != 224 || tt.W != 224 {
		t.Fatalf("tensor shape %dx%dx%d", tt.C, tt.H, tt.W)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	raw := encodeSample(t, 120, 90, 0.5, 8)
	p := DefaultStandard()
	s := Seed{Job: 2, Epoch: 3, Sample: 4}
	a, err := p.Run(raw, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(raw, s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different outputs")
	}
	c, err := p.Run(raw, Seed{Job: 2, Epoch: 4, Sample: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different epochs produced identical augmentations")
	}
}

func TestRunRangeValidatesSplit(t *testing.T) {
	p := DefaultStandard()
	a := RawArtifact([]byte{1})
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {3, 2}} {
		if _, err := p.RunRange(a, bad[0], bad[1], Seed{}); err == nil {
			t.Errorf("RunRange accepted [%d, %d)", bad[0], bad[1])
		}
	}
	same, err := p.RunRange(a, 2, 2, Seed{})
	if err != nil || !same.Equal(a) {
		t.Fatalf("empty range should be identity: %v", err)
	}
}

// TestSplitEquivalence is invariant #1 from DESIGN.md: for every split point
// k, prefix-then-suffix equals a full local run, including an artifact
// encode/decode across the "network" boundary.
func TestSplitEquivalence(t *testing.T) {
	raw := encodeSample(t, 260, 180, 0.6, 9)
	p := DefaultStandard()
	seed := Seed{Job: 11, Epoch: 2, Sample: 33}
	want, err := p.Run(raw, seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= p.Len(); k++ {
		remote, err := p.RunRange(RawArtifact(raw), 0, k, seed)
		if err != nil {
			t.Fatalf("split %d prefix: %v", k, err)
		}
		wire, err := remote.AppendEncode(nil)
		if err != nil {
			t.Fatalf("split %d encode: %v", k, err)
		}
		arrived, err := DecodeArtifact(wire)
		if err != nil {
			t.Fatalf("split %d decode: %v", k, err)
		}
		got, err := p.RunRange(arrived, k, p.Len(), seed)
		if err != nil {
			t.Fatalf("split %d suffix: %v", k, err)
		}
		if !got.Equal(want) {
			t.Fatalf("split %d output differs from local run", k)
		}
	}
}

// Property: split equivalence holds for arbitrary images, seeds, and splits.
func TestSplitEquivalenceProperty(t *testing.T) {
	p := DefaultStandard()
	f := func(w8, h8 uint8, imgSeed, job, epoch, sample uint64, k8 uint8) bool {
		w := int(w8%200) + 30
		h := int(h8%200) + 30
		im, err := imaging.Synthesize(imaging.SynthParams{W: w, H: h, Detail: 0.5, Seed: imgSeed})
		if err != nil {
			return false
		}
		raw, err := imaging.EncodeDefault(im)
		if err != nil {
			return false
		}
		seed := Seed{Job: job, Epoch: epoch, Sample: sample}
		k := int(k8) % (p.Len() + 1)
		want, err := p.Run(raw, seed)
		if err != nil {
			return false
		}
		prefix, err := p.RunRange(RawArtifact(raw), 0, k, seed)
		if err != nil {
			return false
		}
		enc, err := prefix.AppendEncode(nil)
		if err != nil {
			return false
		}
		dec, err := DecodeArtifact(enc)
		if err != nil {
			return false
		}
		got, err := p.RunRange(dec, k, p.Len(), seed)
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMatchesTrace holds the live path to its reference: RunRange fuses
// Decode+RandomResizedCrop (and ToTensor+Normalize), Trace applies the five
// ops one by one, and the final tensors are equal bit for bit — over
// degenerate, odd and photo-sized sources, every training crop size,
// containers of one scan and of three at full and at base fidelity. A prefix
// cut inside the fused pair (the offloaded cut 2) is the same image the
// sequential ops produce.
func TestRunMatchesTrace(t *testing.T) {
	seeds, hurried := 40, testing.Short() || raceflag.Enabled
	if hurried {
		seeds = 4
	}
	for _, dim := range [][2]int{{1, 1}, {9, 1}, {1, 9}, {15, 17}, {333, 251}, {640, 480}} {
		w, h := dim[0], dim[1]
		if hurried && w*h > 333*251 {
			continue
		}
		im, err := imaging.Synthesize(imaging.SynthParams{W: w, H: h, Detail: 0.6, Seed: uint64(w*1000 + h)})
		if err != nil {
			t.Fatal(err)
		}
		one, err := imaging.EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		deep, err := imaging.EncodeProgressive(im, imaging.DefaultQuality, 3)
		if err != nil {
			t.Fatal(err)
		}
		base, err := imaging.SlicePrefix(deep, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, raw := range map[string][]byte{"L1": one, "L3": deep, "L3-base": base} {
			for _, size := range []int{32, 128, 224} {
				p := Standard(StandardOptions{CropSize: size, FlipP: -1})
				n := min(seeds, 4*w*h) // a 1×1 source has one rect
				if w*h > 333*251 {
					n = 8 // imaging's own grid runs 640×480 at every seed
				}
				for s := 0; s < n; s++ {
					seed := Seed{Job: 5, Epoch: 1, Sample: uint64(s)}
					want, _, err := p.Trace(raw, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.Run(raw, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%dx%d %s crop %d seed %d: Run differs from Trace", w, h, name, size, s)
					}
					got.Release()
					want.Release()
					if s > 0 {
						continue
					}
					decoded, err := p.ops[0].apply(RawArtifact(raw), rngFor(seed, 0))
					if err != nil {
						t.Fatal(err)
					}
					cropped, err := p.ops[1].apply(decoded, rngFor(seed, 1))
					if err != nil {
						t.Fatal(err)
					}
					cut2, err := p.RunRange(RawArtifact(raw), 0, 2, seed)
					if err != nil || !cut2.Equal(cropped) {
						t.Fatalf("%dx%d %s crop %d: cut-2 prefix differs from Decode then RandomResizedCrop (err %v)", w, h, name, size, err)
					}
					cut2.Release()
					cropped.Release()
				}
			}
		}
	}
}

// TestFusedPrefixRejectsWhatDecodeRejects: a stream the Decode op refuses is
// refused by the fused prefix with the same cause, attributed to op 0.
func TestFusedPrefixRejectsWhatDecodeRejects(t *testing.T) {
	one := encodeSample(t, 40, 30, 0.5, 2)
	im, err := imaging.Decode(one)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := imaging.EncodeProgressive(im, imaging.DefaultQuality, 3)
	if err != nil {
		t.Fatal(err)
	}
	flipped := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0x40
		return out
	}
	p := DefaultStandard()
	seed := Seed{Job: 1, Epoch: 1, Sample: 1}
	for name, c := range map[string]struct {
		raw  []byte
		want error
	}{
		"empty":            {nil, imaging.ErrCorrupt},
		"L1 header cut":    {one[:9], imaging.ErrCorrupt},
		"L1 version":       {flipped(one, 4), imaging.ErrUnsupported},
		"L1 payload cut":   {one[:len(one)/2], imaging.ErrTruncated},
		"L1 CRC mismatch":  {flipped(one, len(one)/2), imaging.ErrCorrupt},
		"L3 cut mid-scan":  {deep[:len(deep)-5], imaging.ErrTruncated},
		"L3 CRC mismatch":  {flipped(deep, len(deep)-5), imaging.ErrCorrupt},
		"L3 header cut":    {deep[:12], imaging.ErrCorrupt},
		"L3 nothing after": {deep[:4], imaging.ErrCorrupt},
	} {
		_, _, traceErr := p.Trace(c.raw, seed)
		_, runErr := p.Run(c.raw, seed)
		if !errors.Is(traceErr, c.want) || !errors.Is(runErr, c.want) {
			t.Errorf("%s: Trace err %v, Run err %v, want both %v", name, traceErr, runErr, c.want)
			continue
		}
		// Trace says "pipeline: trace op 0 (Decode): …", Run "pipeline: op 0 (Decode): …".
		if want := "pipeline: " + strings.TrimPrefix(traceErr.Error(), "pipeline: trace "); runErr.Error() != want {
			t.Errorf("%s: Run err %q, want Trace's: %q", name, runErr, want)
		}
	}
}

// TestProfileMatchesTrace: the profiling kernel runs the fused path, yet
// returns Trace's artifact bit for bit and Trace's Sizes at every stage, over
// benchSet-shaped containers of one scan and of MaxScans, the 128 and 224
// crops, a pure-crop rect and a pipeline with no fusable pair, the decode
// alone. Outside a
// fused pair it ships what Trace ships; inside one (stages 1 and 4 of the
// standard pipeline) it ships the law size, which bounds Trace's packing, and
// the pair's second op reads 0. A corrupt object fails both the same way.
func TestProfileMatchesTrace(t *testing.T) {
	objects, seeds := 4, 3
	if testing.Short() || raceflag.Enabled {
		objects, seeds = 2, 2
	}
	noPair, err := newPipeline(decodeOp{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(0x5eed, 48)) // imaging's benchSet: 160–640 a side, any detail
	var corrupt []byte
	for o := 0; o < objects; o++ {
		w, h := 160+rng.IntN(481), 160+rng.IntN(481)
		im, err := imaging.Synthesize(imaging.SynthParams{W: w, H: h, Detail: rng.Float64(), Seed: rng.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		one, err := imaging.EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		deep, err := imaging.EncodeProgressive(im, imaging.DefaultQuality, imaging.MaxScans)
		if err != nil {
			t.Fatal(err)
		}
		corrupt = deep
		// A 128² rect of a square ratio: the resample reads every pixel once.
		scale := float64(128*128) / float64(w*h)
		pureCrop := randomResizedCropOp{Size: 128, ScaleLo: scale, ScaleHi: scale, RatioLo: 1, RatioHi: 1, Attempts: 10}
		pure, err := newPipeline(decodeOp{}, pureCrop, randomHorizontalFlipOp{P: 0.5}, toTensorOp{},
			normalizeOp{Mean: tensor.ImageNetMean, Std: tensor.ImageNetStd})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			p     *Pipeline
			fused []int // stages inside a fused pair
		}{
			{"crop 128", Standard(StandardOptions{CropSize: 128, FlipP: -1}), []int{1, 4}},
			{"crop 224", DefaultStandard(), []int{1, 4}},
			{"pure crop", pure, []int{1, 4}},
			{"no pair", noPair, nil},
		} {
			for name, raw := range map[string][]byte{"L1": one, fmt.Sprintf("L%d", imaging.MaxScans): deep} {
				for s := 0; s < seeds; s++ {
					at := fmt.Sprintf("%dx%d %s %s seed %d", w, h, name, c.name, s)
					seed := Seed{Job: 9, Epoch: 1, Sample: uint64(s)}
					if c.name == "pure crop" {
						if r := pureCrop.sampleRect(w, h, rngFor(seed, 1)); r.W != 128 || r.H != 128 {
							t.Fatalf("%s: rect %dx%d is not a pure crop", at, r.W, r.H)
						}
					}
					want, wt, err := c.p.Trace(raw, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, gt, err := c.p.Profile(raw, seed)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: Profile's artifact differs from Trace's", at)
					}
					got.Release()
					want.Release()
					if len(gt.Sizes) != c.p.Len()+1 || len(gt.Shipped) != c.p.Len()+1 || len(gt.OpTimes) != c.p.Len() {
						t.Fatalf("%s: trace lengths %d/%d/%d", at, len(gt.Sizes), len(gt.Shipped), len(gt.OpTimes))
					}
					if gt.Sliced != wt.Sliced || gt.Sliced < 1 || gt.Sliced > gt.Shipped[0] {
						t.Fatalf("%s: a sliced raw fetch ships %d of %d, Trace's %d", at, gt.Sliced, gt.Shipped[0], wt.Sliced)
					}
					for k := range wt.Sizes {
						if gt.Sizes[k] != wt.Sizes[k] {
							t.Fatalf("%s: stage %d size %d, Trace's %d", at, k, gt.Sizes[k], wt.Sizes[k])
						}
						switch {
						case gt.Shipped[k] != wt.Shipped[k]: // a stage inside a fused pair too
							t.Fatalf("%s: stage %d ships %d, Trace's %d", at, k, gt.Shipped[k], wt.Shipped[k])
						case slices.Contains(c.fused, k) && gt.OpTimes[k] != 0:
							t.Fatalf("%s: op %d inside a fused pair timed %v", at, k, gt.OpTimes[k])
						}
					}
				}
			}
		}
	}
	flipped := func(at int) []byte {
		out := append([]byte(nil), corrupt...)
		out[at] ^= 0x40
		return out
	}
	p := DefaultStandard()
	seed := Seed{Job: 9, Epoch: 1, Sample: 1}
	for name, raw := range map[string][]byte{
		"empty":       nil,
		"magic":       flipped(0),
		"version":     flipped(4),
		"header cut":  corrupt[:12],
		"half":        corrupt[:len(corrupt)/2],
		"mid-scan":    corrupt[:len(corrupt)-5],
		"one byte on": append(append([]byte(nil), corrupt...), 0),
	} {
		_, _, traceErr := p.Trace(raw, seed)
		_, _, profErr := p.Profile(raw, seed)
		if traceErr == nil || profErr == nil {
			t.Errorf("%s: Trace err %v, Profile err %v, want both to fail", name, traceErr, profErr)
			continue
		}
		for _, class := range []error{imaging.ErrCorrupt, imaging.ErrUnsupported, imaging.ErrTruncated} {
			if errors.Is(traceErr, class) != errors.Is(profErr, class) {
				t.Errorf("%s: Trace err %v, Profile err %v: not one class", name, traceErr, profErr)
			}
		}
	}
}

func TestTraceSizesMatchPaperShape(t *testing.T) {
	// A large detailed image: raw > 224-crop stage, tensor stage ~4x the
	// cropped image stage (Findings #1 and #2).
	raw := encodeSample(t, 900, 700, 0.9, 10)
	p := DefaultStandard()
	out, trace, err := p.Trace(raw, Seed{Job: 1, Epoch: 1, Sample: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindTensor {
		t.Fatalf("trace output kind %s", out.Kind)
	}
	if len(trace.Sizes) != 6 || len(trace.OpTimes) != 5 {
		t.Fatalf("trace lengths %d/%d", len(trace.Sizes), len(trace.OpTimes))
	}
	if trace.Sizes[0] != len(raw)+1 {
		t.Fatalf("stage 0 size %d, want %d", trace.Sizes[0], len(raw)+1)
	}
	// Stage 2 (after RandomResizedCrop) is the 224×224 image.
	want224 := 1 + 8 + 3*224*224
	if trace.Sizes[2] != want224 {
		t.Fatalf("stage 2 size %d, want %d", trace.Sizes[2], want224)
	}
	if trace.Sizes[3] != want224 {
		t.Fatalf("stage 3 (flip) size %d, want %d", trace.Sizes[3], want224)
	}
	ratio := float64(trace.Sizes[4]) / float64(trace.Sizes[3])
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("ToTensor inflation %.2fx, want ~4x", ratio)
	}
	if trace.Sizes[5] != trace.Sizes[4] {
		t.Fatal("Normalize changed wire size")
	}
	// Decode inflates a compressed raw image.
	if trace.Sizes[1] <= trace.Sizes[0] {
		t.Fatalf("decode did not inflate: %d -> %d", trace.Sizes[0], trace.Sizes[1])
	}
	// Beside the law, what each stage ships: raw and tensor stages ship their
	// size exactly, image stages their packed encoding.
	if len(trace.Shipped) != 6 {
		t.Fatalf("%d shipped sizes", len(trace.Shipped))
	}
	for _, k := range []int{0, 4, 5} {
		if trace.Shipped[k] != trace.Sizes[k] {
			t.Fatalf("stage %d ships %d bytes, size %d", k, trace.Shipped[k], trace.Sizes[k])
		}
	}
	for k := 1; k <= 3; k++ {
		if trace.Shipped[k] <= imageHeader || trace.Shipped[k] >= trace.Sizes[k]*3/4 {
			t.Fatalf("image stage %d ships %d of %d bytes, want well under", k, trace.Shipped[k], trace.Sizes[k])
		}
	}
	cut2, err := p.RunRange(RawArtifact(raw), 0, 2, Seed{Job: 1, Epoch: 1, Sample: 2})
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := cut2.AppendEncode(nil); len(enc) != trace.Shipped[2] {
		t.Fatalf("a cut-2 fetch ships %d bytes, the trace said %d", len(enc), trace.Shipped[2])
	}
}

func TestTraceMinStage(t *testing.T) {
	big := StageTrace{Sizes: []int{500000, 900000, 150000, 150000, 600000, 600000}}
	if got := big.MinStage(); got != 2 {
		t.Fatalf("MinStage = %d, want 2 (earliest min)", got)
	}
	small := StageTrace{Sizes: []int{80000, 900000, 150000, 150000, 600000, 600000}}
	if got := small.MinStage(); got != 0 {
		t.Fatalf("MinStage = %d, want 0", got)
	}
}

func TestSeedForOpIndependence(t *testing.T) {
	s := Seed{Job: 1, Epoch: 2, Sample: 3}
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		v := s.forOp(i)
		if seen[v] {
			t.Fatalf("op %d reuses another op's stream seed", i)
		}
		seen[v] = true
	}
	if s.forOp(0) != s.forOp(0) {
		t.Fatal("ForOp not deterministic")
	}
	if (Seed{Job: 1, Epoch: 2, Sample: 4}).forOp(0) == s.forOp(0) {
		t.Fatal("different samples share op seed")
	}
}

func TestRandomResizedCropFallbackOnTinyImages(t *testing.T) {
	p := DefaultStandard()
	// 1×1 image: every sampled crop fails, fallback must still work.
	im := imaging.MustNew(1, 1)
	raw, err := imaging.Encode(im, 90)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(raw, Seed{Job: 5, Epoch: 1, Sample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tensor.H != 224 || out.Tensor.W != 224 {
		t.Fatalf("tiny image produced %dx%d tensor", out.Tensor.H, out.Tensor.W)
	}
}

func TestExtremeAspectRatioFallback(t *testing.T) {
	p := DefaultStandard()
	for _, dims := range [][2]int{{400, 10}, {10, 400}} {
		im, _ := imaging.Synthesize(imaging.SynthParams{W: dims[0], H: dims[1], Detail: 0.3, Seed: 3})
		raw, err := imaging.EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(raw, Seed{Job: 6, Epoch: 1, Sample: 1}); err != nil {
			t.Fatalf("aspect %v failed: %v", dims, err)
		}
	}
}

func TestOpsRejectWrongKinds(t *testing.T) {
	rngSeed := Seed{Job: 1, Epoch: 1, Sample: 1}
	p := DefaultStandard()
	// Feed a tensor artifact to the image-stage suffix.
	tt, _ := tensor.New(3, 2, 2)
	if _, err := p.RunRange(tensorArtifact(tt), 1, 3, rngSeed); err == nil {
		t.Fatal("image ops accepted tensor input")
	}
	if _, err := p.RunRange(RawArtifact([]byte{1, 2}), 4, 5, rngSeed); err == nil {
		t.Fatal("normalize accepted raw input")
	}
}

func TestFlipProbabilityZeroAndOne(t *testing.T) {
	im, _ := imaging.Synthesize(imaging.SynthParams{W: 30, H: 20, Detail: 0.6, Seed: 12})
	never := randomHorizontalFlipOp{P: 0}
	always := randomHorizontalFlipOp{P: 1}
	seed := Seed{Job: 9, Epoch: 9, Sample: 9}
	// apply consumes (and may mutate) its input, so each call gets a clone
	// and im stays pristine for the comparisons.
	a, err := never.apply(imageArtifact(cloneImage(im)), rngFor(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Image.Equal(im) {
		t.Fatal("P=0 flipped the image")
	}
	b, err := always.apply(imageArtifact(cloneImage(im)), rngFor(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Image.Equal(imaging.FlipHorizontal(im)) {
		t.Fatal("P=1 did not flip the image")
	}
}

func TestOpIDStrings(t *testing.T) {
	for id, want := range map[opID]string{
		opDecode:               "Decode",
		opRandomResizedCrop:    "RandomResizedCrop",
		opRandomHorizontalFlip: "RandomHorizontalFlip",
		opToTensor:             "ToTensor",
		opNormalize:            "Normalize",
		opID(77):               "Op(77)",
	} {
		if id.String() != want {
			t.Errorf("OpID(%d).String() = %q", id, id.String())
		}
	}
	for k, want := range map[Kind]string{KindRaw: "raw", KindImage: "image", KindTensor: "tensor", Kind(9): "kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

// cloneImage returns a deep copy of im.
func cloneImage(im *imaging.Image) *imaging.Image {
	return &imaging.Image{W: im.W, H: im.H, Pix: append([]uint8(nil), im.Pix...)}
}

// cloneTensor returns a deep copy of t in plain memory.
func cloneTensor(t *tensor.Tensor) *tensor.Tensor {
	return &tensor.Tensor{C: t.C, H: t.H, W: t.W, Data: append([]float32(nil), t.Data...)}
}

// Property: over stored containers of 1–4 scans at every fidelity, what a
// raw fetch ships under rows — imaging.Slice to the rect CropRect draws —
// finishes through RunRange to the very tensor the prefix it was cut from
// finishes to, images under one band included.
func TestRowSlicedFetchFinishesLikeThePrefix(t *testing.T) {
	p := Standard(StandardOptions{CropSize: 24, FlipP: -1})
	sliced := 0
	for d, dim := range [][2]int{{37, 53}, {64, 48}, {90, 70}, {20, 9}} {
		im, err := imaging.Synthesize(imaging.SynthParams{W: dim[0], H: dim[1], Detail: 0.6, Seed: uint64(d + 1)})
		if err != nil {
			t.Fatal(err)
		}
		for scans := 1; scans <= imaging.MaxScans; scans++ {
			data, err := imaging.EncodeProgressive(im, imaging.DefaultQuality, scans)
			if err != nil {
				t.Fatal(err)
			}
			for drop := 0; drop < scans; drop++ {
				prefix, err := imaging.SlicePrefix(data, scans-drop)
				if err != nil {
					t.Fatal(err)
				}
				for s := range 8 {
					seed := Seed{Job: 3, Epoch: uint64(s), Sample: uint64(d)}
					rect, ok := p.CropRect(data, seed)
					if !ok {
						t.Fatal("the standard pipeline draws no crop")
					}
					form := make([]byte, len(data))
					form = form[:imaging.Slice(form, data, drop, rect)]
					if len(form) < len(prefix) {
						sliced++
					}
					got, err := p.RunRange(RawArtifact(form), 0, p.Len(), seed)
					if err != nil {
						t.Fatalf("%v L=%d drop=%d seed %d: %v", dim, scans, drop, s, err)
					}
					want, err := p.RunRange(RawArtifact(prefix), 0, p.Len(), seed)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%v L=%d drop=%d seed %d: the row-sliced fetch finishes to another tensor", dim, scans, drop, s)
					}
					got.Release()
					want.Release()
				}
			}
		}
	}
	if sliced == 0 {
		t.Fatal("no fetch was row-sliced")
	}
	t.Logf("%d of %d fetches row-sliced", sliced, 8*4*10)
}

// CropRect answers only for a pipeline whose first two ops are the fused
// Decode+RandomResizedCrop pair, and only for a header it can read.
func TestCropRectNeedsTheFusedPair(t *testing.T) {
	raw := encodeSample(t, 40, 50, 0.5, 1)
	decodeOnly, err := newPipeline(decodeOp{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeOnly.CropRect(raw, Seed{}); ok {
		t.Error("a pipeline without RandomResizedCrop drew a crop")
	}
	p := DefaultStandard()
	if _, ok := p.CropRect(raw[:10], Seed{}); ok {
		t.Error("a truncated header drew a crop")
	}
	seed := Seed{Job: 1, Epoch: 2, Sample: 3}
	rect, ok := p.CropRect(raw, seed)
	if want := p.ops[1].(randomResizedCropOp).sampleRect(40, 50, rngFor(seed, 1)); !ok || rect != want {
		t.Errorf("CropRect = %+v, %v; RandomResizedCrop draws %+v", rect, ok, want)
	}
}
