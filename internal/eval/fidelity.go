package eval

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// FidelityResult checks the model tier against the real tier: samples
// measured by running the real codec and real ops must obey exactly the
// artifact-size law the trace generator assumes, and their offload structure
// (which stage is minimal) must follow from raw size vs crop-artifact size
// the same way. The law is what StageTrace.Sizes reports; what the live tier
// ships on image stages is smaller, by the measured ShippedOverLaw.
type FidelityResult struct {
	Samples          int
	LawViolations    int     // measured stage sizes that break the artifact size law
	MinStageMismatch int     // samples whose min stage isn't argmin(raw, decode, crop)
	Benefiting       float64 // fraction with min stage > 0 in the real tier
	ShippedOverLaw   float64 // packed bytes ÷ law bytes, summed over the image stages
}

// ValidateGenerator renders n real synthetic photos, measures them through
// the real pipeline (the profiler's stage-2 kernel), and audits every stage
// trace against the model tier's assumptions. DESIGN.md's substitution
// argument rests on this correspondence.
func ValidateGenerator(n int, seed uint64) (FidelityResult, Table, error) {
	if n <= 0 {
		n = 96
	}
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "fidelity", N: n, Seed: seed, MinDim: 64, MaxDim: 420,
	})
	if err != nil {
		return FidelityResult{}, Table{}, err
	}
	const crop = 128
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: crop, FlipP: -1})
	res := FidelityResult{Samples: n}
	cropWire := pipeline.ImageWireSize(crop, crop)
	tensorWire := pipeline.TensorWireSize(3, crop, crop)
	var benefiting, shipped, law int
	raws, err := set.Materialize()
	if err != nil {
		return FidelityResult{}, Table{}, err
	}
	for i, raw := range raws {
		meta, err := set.Meta(i)
		if err != nil {
			return FidelityResult{}, Table{}, err
		}
		out, st, err := p.Trace(raw, pipeline.Seed{Job: seed, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			return FidelityResult{}, Table{}, err
		}
		out.Release()
		// The artifact size law the trace generator assumes.
		if st.Sizes[0] != pipeline.RawWireSize(len(raw)) ||
			st.Sizes[1] != pipeline.ImageWireSize(meta.W, meta.H) ||
			st.Sizes[2] != cropWire || st.Sizes[3] != cropWire ||
			st.Sizes[4] != tensorWire || st.Sizes[5] != tensorWire {
			res.LawViolations++
		}
		// Min stage must be the argmin over {raw, decode, crop} (tensor
		// stages are always the largest).
		want := 0
		if st.Sizes[1] < st.Sizes[want] {
			want = 1
		}
		if cropWire < st.Sizes[want] {
			want = 2
		}
		min := st.MinStage()
		if min != want {
			res.MinStageMismatch++
		}
		if min > 0 {
			benefiting++
		}
		for k := 1; k <= 3; k++ {
			shipped += st.Shipped[k]
			law += st.Sizes[k]
		}
	}
	res.Benefiting = float64(benefiting) / float64(n)
	res.ShippedOverLaw = float64(shipped) / float64(law)
	t := Table{
		Title:   "Fidelity: real-tier measurements vs the model tier's assumptions",
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("samples measured (real codec + real ops)", fmt.Sprintf("%d", res.Samples))
	t.AddRow("artifact size-law violations", fmt.Sprintf("%d", res.LawViolations))
	t.AddRow("min-stage mismatches", fmt.Sprintf("%d", res.MinStageMismatch))
	t.AddRow("benefiting fraction (real tier)", fmtF(res.Benefiting, 3))
	t.AddRow("image stages, shipped ÷ law bytes", fmtF(res.ShippedOverLaw, 3))
	t.Notes = append(t.Notes,
		"zero violations ⇒ the statistical trace generator and the real pipeline share one size law")
	return res, t, nil
}
