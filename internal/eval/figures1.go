package eval

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/policy"
)

// stageNames labels the six pipeline stages.
var stageNames = [dataset.StageCount]string{
	"raw", "decode", "rrcrop", "flip", "totensor", "normalize",
}

// table1 reproduces the paper's capability matrix: prior offloading systems
// versus SOPHON. The literature rows encode the published designs; the
// SOPHON row comes from the decision engine's own metadata.
func table1() table {
	rows := []struct {
		name string
		c    policy.Capabilities
	}{
		{"tf.data service [32]", policy.Capabilities{}},
		{"FastFlow [33]", policy.FastFlow{}.Capabilities()},
		{"GoldMiner [34]", policy.Capabilities{OperationSelective: policy.Partial}},
		{"cedar [35]", policy.Capabilities{OperationSelective: policy.Partial}},
		{"SOPHON", policy.NewSophon().Capabilities()},
	}
	t := table{
		Title:   "Table 1: Existing Offloading vs SOPHON",
		Columns: []string{"System", "Operation Selective", "Data Partial", "Data Selective", "To Near Storage"},
	}
	for _, r := range rows {
		t.addRow(r.name,
			r.c.OperationSelective.String(),
			r.c.DataPartial.String(),
			r.c.DataSelective.String(),
			r.c.NearStorage.String())
	}
	return t
}

// fig1aResult holds per-stage wire sizes for the two representative
// samples: A (large photo, min size mid-pipeline) and B (small photo, min
// size raw).
type fig1aResult struct {
	SampleA [dataset.StageCount]int64
	SampleB [dataset.StageCount]int64
}

// minStageA returns sample A's smallest stage.
func (r fig1aResult) minStageA() int { return minStage(r.SampleA) }

// minStageB returns sample B's smallest stage.
func (r fig1aResult) minStageB() int { return minStage(r.SampleB) }

func minStage(sizes [dataset.StageCount]int64) int {
	best := 0
	for i, s := range sizes {
		if s < sizes[best] {
			best = i
		}
	}
	return best
}

// figure1a traces two real synthetic photos through the real pipeline:
// Sample A is a detailed ~1-megapixel photo whose raw encoding (~460 KB)
// shrinks to the ~150 KB crop artifact; Sample B is a small photo whose raw
// form is already the minimum.
func figure1a(opts Options) (fig1aResult, table, error) {
	var res fig1aResult
	p := pipeline.DefaultStandard()

	trace := func(w, h int, detail float64, seed uint64, sample uint64) ([dataset.StageCount]int64, error) {
		var sizes [dataset.StageCount]int64
		im, err := imaging.Synthesize(imaging.SynthParams{W: w, H: h, Detail: detail, Seed: seed})
		if err != nil {
			return sizes, err
		}
		raw, err := imaging.EncodeDefault(im)
		if err != nil {
			return sizes, err
		}
		_, st, err := p.Trace(raw, pipeline.Seed{Job: opts.seed(), Epoch: 1, Sample: sample})
		if err != nil {
			return sizes, err
		}
		for i, s := range st.Sizes {
			sizes[i] = int64(s)
		}
		return sizes, nil
	}

	var err error
	// Sample A: a large, detailed photo (the paper's 462 KB JPEG).
	res.SampleA, err = trace(1180, 885, 0.85, opts.seed()+1, 1)
	if err != nil {
		return res, table{}, fmt.Errorf("eval: sample A: %w", err)
	}
	// Sample B: a small photo already below the crop-artifact size.
	res.SampleB, err = trace(210, 160, 0.35, opts.seed()+2, 2)
	if err != nil {
		return res, table{}, fmt.Errorf("eval: sample B: %w", err)
	}

	t := table{
		Title:   "Figure 1a: artifact size through the preprocessing pipeline (KB)",
		Columns: []string{"Stage", "Sample A", "Sample B"},
	}
	for i := 0; i < dataset.StageCount; i++ {
		t.addRow(stageNames[i],
			fmtF(float64(res.SampleA[i])/1e3, 1),
			fmtF(float64(res.SampleB[i])/1e3, 1))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("sample A min at stage %q; sample B min at stage %q",
			stageNames[res.minStageA()], stageNames[res.minStageB()]))
	return res, t, nil
}

// fig1bResult holds min-stage distributions per dataset.
type fig1bResult struct {
	Datasets   []string
	Hist       map[string][dataset.StageCount]float64 // fraction per stage
	Benefiting map[string]float64                     // fraction with min after stage 0
}

// figure1b computes, for both dataset profiles, the fraction of samples
// whose minimum wire size occurs at each stage (the paper: 76 % of
// OpenImages and 26 % of ImageNet benefit from some offloading).
func figure1b(opts Options) (fig1bResult, table, error) {
	res := fig1bResult{
		Hist:       map[string][dataset.StageCount]float64{},
		Benefiting: map[string]float64{},
	}
	t := table{
		Title:   "Figure 1b: where each sample reaches its minimum size (fraction of dataset)",
		Columns: append([]string{"Dataset"}, append(stageNames[:], "benefiting")...),
	}
	for _, pr := range []dataset.Profile{profileOI(opts), profileIN(opts)} {
		tr, err := dataset.GenerateTrace(pr, opts.seed())
		if err != nil {
			return res, table{}, err
		}
		hist := tr.MinStageHistogram()
		var frac [dataset.StageCount]float64
		row := []string{pr.Name}
		for i, c := range hist {
			frac[i] = float64(c) / float64(tr.N())
			row = append(row, fmtF(frac[i], 3))
		}
		res.Datasets = append(res.Datasets, pr.Name)
		res.Hist[pr.Name] = frac
		res.Benefiting[pr.Name] = tr.FractionBenefiting()
		row = append(row, fmtF(res.Benefiting[pr.Name], 3))
		t.addRow(row...)
	}
	return res, t, nil
}

// fig1cResult summarizes the offloading-efficiency distribution.
type fig1cResult struct {
	FractionZero float64
	// PercentileMBps maps percentile (e.g. 50) to efficiency in MB saved
	// per CPU-second, over the whole dataset (zeros included).
	PercentileMBps map[int]float64
}

// figure1c computes the distribution of offloading efficiency (size
// reduction per CPU-second) across the OpenImages profile.
func figure1c(opts Options) (fig1cResult, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return fig1cResult{}, table{}, err
	}
	cands := policy.Candidates(tr)
	effs := make([]float64, len(cands))
	zero := 0
	for i, c := range cands {
		effs[i] = c.Efficiency
		if c.Efficiency == 0 {
			zero++
		}
	}
	sort.Float64s(effs)
	res := fig1cResult{
		FractionZero:   float64(zero) / float64(len(effs)),
		PercentileMBps: map[int]float64{},
	}
	t := table{
		Title:   "Figure 1c: offloading efficiency distribution, OpenImages (MB saved per CPU-second)",
		Columns: []string{"Metric", "Value"},
	}
	t.addRow("fraction at zero", fmtF(res.FractionZero, 3))
	for _, pct := range []int{25, 50, 75, 90, 99} {
		idx := pct * (len(effs) - 1) / 100
		v := effs[idx] / 1e6
		res.PercentileMBps[pct] = v
		t.addRow(fmt.Sprintf("p%d", pct), fmtF(v, 2))
	}
	return res, t, nil
}

// fig1dResult maps model name to GPU utilization under the constrained
// link.
type fig1dResult struct {
	Utilization map[string]float64
}

// figure1d simulates a no-offloading epoch per model profile and reports
// GPU utilization.
func figure1d(opts Options) (fig1dResult, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return fig1dResult{}, table{}, err
	}
	plan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
	if err != nil {
		return fig1dResult{}, table{}, err
	}
	res := fig1dResult{Utilization: map[string]float64{}}
	t := table{
		Title:   "Figure 1d: GPU utilization under a 500 Mbps link (no offloading)",
		Columns: []string{"Model", "GPU util", "Fetch-idle"},
	}
	for _, m := range gpu.Models() {
		env := defaultEnv(0)
		env.GPU = m
		r, err := engine.Run(engine.Config{Trace: tr, Plan: plan, Env: env})
		if err != nil {
			return fig1dResult{}, table{}, err
		}
		res.Utilization[m.Name] = r.GPUUtilization
		t.addRow(m.Name, fmtF(r.GPUUtilization, 3), fmtF(1-r.GPUUtilization, 3))
	}
	return res, t, nil
}

func profileOI(opts Options) dataset.Profile {
	p := dataset.OpenImages12G()
	if opts.OpenImages > 0 {
		p = p.ScaledTo(opts.OpenImages)
	}
	return p
}

func profileIN(opts Options) dataset.Profile {
	p := dataset.ImageNet11G()
	if opts.ImageNet > 0 {
		p = p.ScaledTo(opts.ImageNet)
	}
	return p
}
