package dataset

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pipeline"
)

func TestRecordMinStageAndSaving(t *testing.T) {
	r := Record{StageSizes: [StageCount]int64{500, 900, 150, 150, 600, 600}}
	if got := r.MinStage(); got != 2 {
		t.Fatalf("MinStage = %d, want 2", got)
	}
	if got := r.Saving(2); got != 350 {
		t.Fatalf("Saving(2) = %d", got)
	}
	if got := r.Saving(4); got != -100 {
		t.Fatalf("Saving(4) = %d", got)
	}
	raw := Record{StageSizes: [StageCount]int64{100, 900, 150, 150, 600, 600}}
	if got := raw.MinStage(); got != 0 {
		t.Fatalf("raw-min MinStage = %d", got)
	}
}

func TestRecordPrefixTime(t *testing.T) {
	r := Record{OpTimes: [OpCount]time.Duration{1, 2, 3, 4, 5}}
	if got := r.PrefixTime(0); got != 0 {
		t.Fatalf("PrefixTime(0) = %v", got)
	}
	if got := r.PrefixTime(2); got != 3 {
		t.Fatalf("PrefixTime(2) = %v", got)
	}
	if got := r.TotalTime(); got != 15 {
		t.Fatalf("TotalTime = %v", got)
	}
	// PrefixTime beyond OpCount clamps.
	if got := r.PrefixTime(99); got != 15 {
		t.Fatalf("PrefixTime(99) = %v", got)
	}
}

func TestTraceAggregates(t *testing.T) {
	tr := &Trace{Records: []Record{
		{StageSizes: [StageCount]int64{10, 1, 1, 1, 1, 1}, OpTimes: [OpCount]time.Duration{1, 1, 1, 1, 1}},
		{StageSizes: [StageCount]int64{20, 30, 30, 30, 30, 30}, OpTimes: [OpCount]time.Duration{2, 2, 2, 2, 2}},
	}}
	if got := tr.TotalRawBytes(); got != 30 {
		t.Fatalf("TotalRawBytes = %d", got)
	}
	s, err := tr.TotalStageBytes(1)
	if err != nil || s != 31 {
		t.Fatalf("TotalStageBytes(1) = %d, %v", s, err)
	}
	if _, err := tr.TotalStageBytes(StageCount); err == nil {
		t.Fatal("TotalStageBytes accepted out-of-range stage")
	}
	if got := tr.TotalPreprocessCPU(); got != 15 {
		t.Fatalf("TotalPreprocessCPU = %v", got)
	}
	h := tr.MinStageHistogram()
	if h[1] != 1 || h[0] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	if got := tr.FractionBenefiting(); got != 0.5 {
		t.Fatalf("FractionBenefiting = %v", got)
	}
	empty := &Trace{}
	if empty.FractionBenefiting() != 0 {
		t.Fatal("empty trace fraction != 0")
	}
}

func TestTraceStats(t *testing.T) {
	empty := &Trace{}
	if s := empty.Stats(); s.N != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	tr, err := GenerateTrace(OpenImages12G().ScaledTo(1000), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	// Stats sums stored object sizes; Trace.TotalRawBytes counts the wire
	// form (one framing byte per sample).
	if s.N != 1000 || s.TotalRawBytes != tr.TotalRawBytes()-int64(s.N) {
		t.Fatalf("stats totals: %+v", s)
	}
	if s.MeanRawBytes < 250e3 || s.MeanRawBytes > 350e3 {
		t.Fatalf("mean raw %v", s.MeanRawBytes)
	}
	// Lognormal: median below mean, max above both.
	if !(float64(s.MedianRawBytes) < s.MeanRawBytes && s.MaxRawBytes > s.MedianRawBytes) {
		t.Fatalf("ordering: median=%d mean=%.0f max=%d", s.MedianRawBytes, s.MeanRawBytes, s.MaxRawBytes)
	}
	if s.MeanPreprocess <= 0 {
		t.Fatal("no preprocess time")
	}
	str := s.String()
	for _, want := range []string{"n=1000", "benefiting"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	p := OpenImages12G().ScaledTo(200)
	a, err := GenerateTrace(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across same-seed generations", i)
		}
	}
	c, _ := GenerateTrace(p, 2)
	same := true
	for i := range a.Records {
		if a.Records[i] != c.Records[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateTraceValidates(t *testing.T) {
	p := OpenImages12G()
	p.N = 0
	if _, err := GenerateTrace(p, 1); err == nil {
		t.Fatal("accepted N=0")
	}
	p = OpenImages12G()
	p.CropSize = 0
	if _, err := GenerateTrace(p, 1); err == nil {
		t.Fatal("accepted CropSize=0")
	}
}

// TestOpenImagesProfileMatchesPaper checks the headline statistics the
// paper reports for its OpenImages subset: ~12 GB total at 40 k samples
// (mean ≈ 300 KB) and ~76 % of samples benefiting from preprocessing.
func TestOpenImagesProfileMatchesPaper(t *testing.T) {
	tr, err := GenerateTrace(OpenImages12G().ScaledTo(20000), 42)
	if err != nil {
		t.Fatal(err)
	}
	meanRaw := float64(tr.TotalRawBytes()) / float64(tr.N())
	if meanRaw < 270e3 || meanRaw > 330e3 {
		t.Fatalf("mean raw size = %.0f, want ~300 KB", meanRaw)
	}
	frac := tr.FractionBenefiting()
	if frac < 0.72 || frac > 0.80 {
		t.Fatalf("fraction benefiting = %.3f, want ~0.76", frac)
	}
}

// TestImageNetProfileMatchesPaper checks ~11 GB at 91 k samples (mean
// ≈ 121 KB) and ~26 % benefiting.
func TestImageNetProfileMatchesPaper(t *testing.T) {
	tr, err := GenerateTrace(ImageNet11G().ScaledTo(20000), 43)
	if err != nil {
		t.Fatal(err)
	}
	meanRaw := float64(tr.TotalRawBytes()) / float64(tr.N())
	if meanRaw < 105e3 || meanRaw > 140e3 {
		t.Fatalf("mean raw size = %.0f, want ~121 KB", meanRaw)
	}
	frac := tr.FractionBenefiting()
	if frac < 0.22 || frac > 0.30 {
		t.Fatalf("fraction benefiting = %.3f, want ~0.26", frac)
	}
}

// TestTraceStageSizeLaw verifies generated stage sizes follow the artifact
// wire-size law used by the real pipeline.
func TestTraceStageSizeLaw(t *testing.T) {
	tr, err := GenerateTrace(OpenImages12G().ScaledTo(500), 7)
	if err != nil {
		t.Fatal(err)
	}
	cropWire := int64(pipeline.ImageWireSize(224, 224))
	tensorWire := int64(pipeline.TensorWireSize(3, 224, 224))
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.StageSizes[0] != int64(pipeline.RawWireSize(int(r.RawSize))) {
			t.Fatalf("record %d stage0 %d != raw law", i, r.StageSizes[0])
		}
		if r.StageSizes[1] != int64(pipeline.ImageWireSize(r.Width, r.Height)) {
			t.Fatalf("record %d stage1 %d != image law for %dx%d", i, r.StageSizes[1], r.Width, r.Height)
		}
		if r.StageSizes[2] != cropWire || r.StageSizes[3] != cropWire {
			t.Fatalf("record %d crop stages %d/%d", i, r.StageSizes[2], r.StageSizes[3])
		}
		if r.StageSizes[4] != tensorWire || r.StageSizes[5] != tensorWire {
			t.Fatalf("record %d tensor stages %d/%d", i, r.StageSizes[4], r.StageSizes[5])
		}
		for _, ot := range r.OpTimes {
			if ot <= 0 {
				t.Fatalf("record %d has non-positive op time %v", i, ot)
			}
		}
	}
}

// TestTracePreprocessBudget pins the calibrated CPU budget: mean full
// preprocessing ~10-25 ms/sample, prefix (Decode+Crop) dominating it.
func TestTracePreprocessBudget(t *testing.T) {
	tr, err := GenerateTrace(OpenImages12G().ScaledTo(2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.TotalPreprocessCPU() / time.Duration(tr.N())
	if mean < 8*time.Millisecond || mean > 30*time.Millisecond {
		t.Fatalf("mean preprocess = %v, want 8-30ms", mean)
	}
	var prefix, total time.Duration
	for i := range tr.Records {
		prefix += tr.Records[i].PrefixTime(2)
		total += tr.Records[i].TotalTime()
	}
	ratio := float64(prefix) / float64(total)
	if ratio < 0.7 || ratio > 0.98 {
		t.Fatalf("decode+crop share = %.2f of total, want dominant", ratio)
	}
}

func TestCostModelScaled(t *testing.T) {
	m := DefaultCostModel()
	s := m.Scaled(2)
	if s.DecodePerPixel != 2*m.DecodePerPixel || s.NormalizePerPix != 2*m.NormalizePerPix {
		t.Fatal("Scaled did not scale all constants")
	}
	a := m.OpTimes(1000, 10000, 50176, 1)
	b := s.OpTimes(1000, 10000, 50176, 1)
	for i := range a {
		diff := math.Abs(float64(b[i]) - 2*float64(a[i]))
		if diff > 2 { // rounding slack in ns
			t.Fatalf("op %d: scaled %v vs base %v", i, b[i], a[i])
		}
	}
}

func TestSyntheticImageSetValidates(t *testing.T) {
	if _, err := NewSyntheticImageSet(SyntheticOptions{N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := NewSyntheticImageSet(SyntheticOptions{N: 1, MinDim: 100, MaxDim: 50}); err == nil {
		t.Fatal("accepted inverted dims")
	}
}

func TestSyntheticImageSetDeterministicRaw(t *testing.T) {
	opts := SyntheticOptions{Name: "t", N: 5, Seed: 3, MinDim: 40, MaxDim: 80}
	a, err := NewSyntheticImageSet(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSyntheticImageSet(opts)
	for i := 0; i < a.N(); i++ {
		ra, err := a.Raw(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.Raw(i)
		if string(ra) != string(rb) {
			t.Fatalf("sample %d bytes differ across identical sets", i)
		}
	}
	if a.Name() != "t" || a.N() != 5 {
		t.Fatalf("Name/N = %q/%d", a.Name(), a.N())
	}
}

func TestSyntheticImageSetBoundsChecks(t *testing.T) {
	s, err := NewSyntheticImageSet(SyntheticOptions{N: 2, Seed: 1, MinDim: 20, MaxDim: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Raw(-1); err == nil {
		t.Fatal("Raw(-1) accepted")
	}
	if _, err := s.Raw(2); err == nil {
		t.Fatal("Raw(N) accepted")
	}
	if _, err := s.Meta(5); err == nil {
		t.Fatal("Meta out of range accepted")
	}
}

func TestSyntheticImageSetMaterializeAndDecode(t *testing.T) {
	s, err := NewSyntheticImageSet(SyntheticOptions{N: 4, Seed: 11, MinDim: 24, MaxDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 4 {
		t.Fatalf("materialized %d blobs", len(blobs))
	}
	p := pipeline.DefaultStandard()
	for i, raw := range blobs {
		out, err := p.Run(raw, pipeline.Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			t.Fatalf("sample %d failed pipeline: %v", i, err)
		}
		if out.Kind != pipeline.KindTensor {
			t.Fatalf("sample %d output kind %s", i, out.Kind)
		}
	}
}

// Property: every image set sample respects its declared dimension range
// and decodes to its metadata dims.
func TestImageSetDimsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s, err := NewSyntheticImageSet(SyntheticOptions{N: 3, Seed: seed, MinDim: 16, MaxDim: 48})
		if err != nil {
			return false
		}
		for i := 0; i < s.N(); i++ {
			m, err := s.Meta(i)
			if err != nil || m.W < 16 || m.W > 48 || m.H < 16 || m.H > 48 {
				return false
			}
			im, err := s.Image(i)
			if err != nil || im.W != m.W || im.H != m.H {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
