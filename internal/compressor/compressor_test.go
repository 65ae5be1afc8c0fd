package compressor

import (
	"bytes"
	"compress/flate"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
)

func env(storageCores int) policy.Env {
	return policy.Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    storageCores,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
}

func openImages(t testing.TB, n int) *dataset.Trace {
	t.Helper()
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(n), 21)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestModelCalibration holds DefaultModel's per-kind ratios against what the
// repository really does to each kind. Image artifacts are checked against
// the live wire form (pipeline.Artifact.Encode packs them); raw and tensor
// artifacts ship verbatim, so for them the model's claim is about a general
// compressor, stood in for here by DEFLATE.
func TestModelCalibration(t *testing.T) {
	m := DefaultModel()
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: 128, FlipP: -1})
	deflated := func(a pipeline.Artifact) float64 {
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(enc); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(buf.Len()) / float64(len(enc))
	}

	// The live benchmark's geometry: 128×128 crops of 160–640 px photos.
	var shipped, unpacked int
	for i, dim := range []int{160, 320, 480, 640} {
		im, err := imaging.Synthesize(imaging.SynthParams{W: dim, H: dim * 3 / 4, Detail: 0.2 + 0.2*float64(i), Seed: uint64(5 + i)})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := imaging.EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		seed := pipeline.Seed{Job: 1, Epoch: 1, Sample: uint64(i)}
		if r := deflated(pipeline.RawArtifact(raw)); r < 0.9 {
			t.Fatalf("raw SJPG deflated to %.2f, expected ~1 (already compressed)", r)
		}
		crop, err := p.RunRange(pipeline.RawArtifact(raw), 0, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := crop.Encode()
		if err != nil {
			t.Fatal(err)
		}
		shipped += len(enc)
		unpacked += crop.WireSize()
		tensor, err := p.RunRange(crop, 2, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r := deflated(tensor); r > 1.05 {
			t.Fatalf("tensor artifact inflated to %.2f", r)
		}
	}
	// The model must not promise more than the code that ships delivers, and
	// should be in its regime: the live pack reads ≈0.41 here.
	live := float64(shipped) / float64(unpacked)
	if live > m.ImageRatio || live < m.ImageRatio/2 {
		t.Fatalf("live packed image ratio %.3f, want within [%.2f, %.2f] of DefaultModel().ImageRatio", live, m.ImageRatio/2, m.ImageRatio)
	}
	if m.RawRatio < 0.9 {
		t.Fatalf("DefaultModel out of calibration: %+v", m)
	}
}

func TestSelectValidation(t *testing.T) {
	tr := openImages(t, 100)
	plan, _ := policy.NewUniformPlan("p", 100, 2)
	bad := env(4)
	bad.Bandwidth = 0
	if _, err := Select(tr, plan, bad, DefaultModel()); err == nil {
		t.Fatal("accepted bad env")
	}
	short, _ := policy.NewUniformPlan("p", 10, 2)
	if _, err := Select(tr, short, env(4), DefaultModel()); err == nil {
		t.Fatal("accepted mismatched plan")
	}
}

func TestSelectZeroCoresSelectsNothing(t *testing.T) {
	tr := openImages(t, 100)
	plan, _ := policy.NewUniformPlan("p", 100, 0)
	sel, err := Select(tr, plan, env(0), DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 0 {
		t.Fatalf("selected %d with no storage cores", sel.Count())
	}
}

func TestSelectSkipsRawShipments(t *testing.T) {
	tr := openImages(t, 200)
	noOff, _ := policy.NewUniformPlan("no", 200, 0)
	sel, err := Select(tr, noOff, env(8), DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 0 {
		t.Fatalf("selected %d raw shipments for compression (ratio 1)", sel.Count())
	}
}

// TestCompressionReducesEpoch reproduces Ablation B's expected shape: on
// top of a SOPHON plan, selective compression reduces traffic and does not
// slow the epoch.
func TestCompressionReducesEpoch(t *testing.T) {
	tr := openImages(t, 3000)
	e := env(48)
	plan, err := policy.NewSophon().Plan(tr, e)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(tr, plan, e, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() == 0 {
		t.Fatal("nothing selected on an I/O-bound SOPHON plan")
	}
	adjusted, err := ApplyToTrace(tr, plan, sel, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	base, err := engine.Run(engine.Config{Trace: tr, Plan: plan, Env: e})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := engine.Run(engine.Config{Trace: adjusted, Plan: plan, Env: e})
	if err != nil {
		t.Fatal(err)
	}
	if comp.TrafficBytes >= base.TrafficBytes {
		t.Fatalf("compression did not reduce traffic: %d vs %d", comp.TrafficBytes, base.TrafficBytes)
	}
	if float64(comp.EpochTime) > float64(base.EpochTime)*1.01 {
		t.Fatalf("compression slowed the epoch: %v vs %v", comp.EpochTime, base.EpochTime)
	}
}

func TestApplyToTraceAccounting(t *testing.T) {
	tr := openImages(t, 50)
	plan, _ := policy.NewUniformPlan("r", 50, 2)
	sel := &Selection{Flags: make([]bool, 50)}
	sel.Flags[7] = true
	m := DefaultModel()
	adjusted, err := ApplyToTrace(tr, plan, sel, m)
	if err != nil {
		t.Fatal(err)
	}
	// Unflagged records are untouched.
	if adjusted.Records[8] != tr.Records[8] {
		t.Fatal("unflagged record changed")
	}
	orig := &tr.Records[7]
	mod := &adjusted.Records[7]
	wantSize := int64(float64(orig.StageSizes[2]) * m.ImageRatio)
	if mod.StageSizes[2] != wantSize {
		t.Fatalf("stage size %d, want %d", mod.StageSizes[2], wantSize)
	}
	if mod.OpTimes[1] <= orig.OpTimes[1] {
		t.Fatal("compression CPU not charged to the storage-side prefix")
	}
	if mod.OpTimes[2] <= orig.OpTimes[2] {
		t.Fatal("decompression CPU not charged to the local suffix")
	}
	// The original trace is untouched.
	if tr.Records[7].StageSizes[2] == mod.StageSizes[2] {
		t.Fatal("ApplyToTrace mutated its input")
	}

	// Mismatched sizes rejected.
	if _, err := ApplyToTrace(tr, plan, &Selection{Flags: make([]bool, 3)}, m); err == nil {
		t.Fatal("accepted mismatched selection")
	}
}

func TestApplyToTraceFullOffloadEdge(t *testing.T) {
	// Split 5 has no local suffix op; decompression accounting must not
	// panic or write out of bounds.
	tr := openImages(t, 10)
	plan, _ := policy.NewUniformPlan("all", 10, dataset.OpCount)
	sel := &Selection{Flags: make([]bool, 10)}
	for i := range sel.Flags {
		sel.Flags[i] = true
	}
	adjusted, err := ApplyToTrace(tr, plan, sel, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for i := range adjusted.Records {
		if adjusted.Records[i].StageSizes[dataset.OpCount] >= tr.Records[i].StageSizes[dataset.OpCount] {
			t.Fatalf("record %d tensor stage not compressed", i)
		}
	}
}
