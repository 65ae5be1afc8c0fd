package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
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
	enc, err := a.Encode()
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
	a := ImageArtifact(im)
	enc, err := a.Encode()
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
		a := ImageArtifact(im)
		enc, err := a.Encode()
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
	return ImageArtifact(noise)
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
	cases := map[string]Artifact{"photo": ImageArtifact(photo), "noise 128x128": noiseArtifact(128, 128, 3)}
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

func TestArtifactEncodeDecodeTensor(t *testing.T) {
	tt, _ := tensor.New(3, 4, 5)
	tt.Set(1, 2, 3, -2.5)
	a := TensorArtifact(tt)
	enc, err := a.Encode()
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
	good, _ := ImageArtifact(im).Encode()
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
		if _, err := DecodeArtifact(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeArtifact(%s) = %v, want ErrCorrupt", name, err)
		}
	}
	// A 9-byte header may claim 65 536 × 65 536; nothing is sized from it.
	before := bufpool.ByteStats()
	if _, err := DecodeArtifact(withDims(1<<16, 1<<16)[:imageHeader]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bare 65536x65536 header: %v, want ErrCorrupt", err)
	}
	if _, err := DecodeArtifact(withDims(1<<16, 1<<16)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("65536x65536 over a 4x4 payload: %v, want ErrCorrupt", err)
	}
	if after := bufpool.ByteStats(); after != before {
		t.Errorf("an implausible image header reached the buffer arena: %+v -> %+v", before, after)
	}
}

func TestArtifactEqualAcrossKinds(t *testing.T) {
	if RawArtifact([]byte{1}).Equal(ImageArtifact(imaging.MustNew(1, 1))) {
		t.Fatal("different kinds reported equal")
	}
	if !RawArtifact(nil).Equal(RawArtifact([]byte{})) {
		t.Fatal("empty raw artifacts should be equal")
	}
}

func TestNewValidatesChaining(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := New(toTensorOp{}); err == nil {
		t.Fatal("pipeline starting with image-consumer accepted")
	}
	if _, err := New(decodeOp{}, decodeOp{}); err == nil {
		t.Fatal("kind-mismatched chain accepted")
	}
	if _, err := New(decodeOp{}, toTensorOp{}, normalizeOp{Mean: tensor.ImageNetMean, Std: tensor.ImageNetStd}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestStandardPipelineShape(t *testing.T) {
	p := DefaultStandard()
	if p.Len() != 5 {
		t.Fatalf("standard pipeline has %d ops", p.Len())
	}
	want := []OpID{OpDecode, OpRandomResizedCrop, OpRandomHorizontalFlip, OpToTensor, OpNormalize}
	got := p.OpIDs()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %s, want %s", i, got[i], want[i])
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
		wire, err := remote.Encode()
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
		enc, err := prefix.Encode()
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
					decoded, err := p.ops[0].Apply(RawArtifact(raw), rngFor(seed, 0))
					if err != nil {
						t.Fatal(err)
					}
					cropped, err := p.ops[1].Apply(decoded, rngFor(seed, 1))
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
	if enc, _ := cut2.Encode(); len(enc) != trace.Shipped[2] {
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
		v := s.ForOp(i)
		if seen[v] {
			t.Fatalf("op %d reuses another op's stream seed", i)
		}
		seen[v] = true
	}
	if s.ForOp(0) != s.ForOp(0) {
		t.Fatal("ForOp not deterministic")
	}
	if (Seed{Job: 1, Epoch: 2, Sample: 4}).ForOp(0) == s.ForOp(0) {
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
	if _, err := p.RunRange(TensorArtifact(tt), 1, 3, rngSeed); err == nil {
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
	// Apply consumes (and may mutate) its input, so each call gets a clone
	// and im stays pristine for the comparisons.
	a, err := never.Apply(ImageArtifact(im.Clone()), rngFor(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Image.Equal(im) {
		t.Fatal("P=0 flipped the image")
	}
	b, err := always.Apply(ImageArtifact(im.Clone()), rngFor(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Image.Equal(imaging.FlipHorizontal(im)) {
		t.Fatal("P=1 did not flip the image")
	}
}

func TestOpIDStrings(t *testing.T) {
	for id, want := range map[OpID]string{
		OpDecode:               "Decode",
		OpRandomResizedCrop:    "RandomResizedCrop",
		OpRandomHorizontalFlip: "RandomHorizontalFlip",
		OpToTensor:             "ToTensor",
		OpNormalize:            "Normalize",
		OpID(77):               "Op(77)",
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
