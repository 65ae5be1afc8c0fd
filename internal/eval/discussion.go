package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// The paper's §5 Discussion makes two falsifiable claims beyond the main
// evaluation: (F) SOPHON matters exactly when remote I/O is the bottleneck —
// faster links or fewer GPUs per link move the crossover; (G) LLM shard
// workloads offer no offloading opportunity and SOPHON must degenerate to
// the baseline. These experiments check both.

// discussionFRow is one (bandwidth, GPU count) point.
type discussionFRow struct {
	GbpsLink     float64
	GPUs         int
	Dominant     string
	Activated    bool
	NoOffSeconds float64
	SophonSecond float64
}

// discussionBandwidthSweep sweeps the link speed for 1- and 8-GPU compute
// nodes training ResNet50 on the ImageNet profile: offloading activates
// below the I/O crossover and correctly stays off above it.
func discussionBandwidthSweep(opts Options) ([]discussionFRow, table, error) {
	tr, err := dataset.GenerateTrace(profileIN(opts), opts.seed())
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title:   "Discussion F: when does remote I/O bottleneck? (ImageNet, ResNet50, 48 storage cores)",
		Columns: []string{"Link", "GPUs", "Dominant", "Offload", "No-Off (s)", "SOPHON (s)"},
	}
	var rows []discussionFRow
	framework := core.New()
	for _, gpus := range []int{1, 8} {
		for _, gbps := range []float64{0.1, 0.25, 0.5, 1, 2, 4} {
			env := defaultEnv(48)
			env.Bandwidth = netsim.Mbps(gbps * 1000)
			env.GPU = gpu.ResNet50
			env.GPUCount = gpus
			d, err := framework.Decide(tr, env)
			if err != nil {
				return nil, table{}, err
			}
			noOffPlan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
			if err != nil {
				return nil, table{}, err
			}
			noOff, err := engine.Run(engine.Config{Trace: tr, Plan: noOffPlan, Env: env, BatchSize: 256})
			if err != nil {
				return nil, table{}, err
			}
			sophon, err := engine.Run(engine.Config{Trace: tr, Plan: d.Plan, Env: env, BatchSize: 256})
			if err != nil {
				return nil, table{}, err
			}
			row := discussionFRow{
				GbpsLink:     gbps,
				GPUs:         gpus,
				Dominant:     d.Baseline.Dominant(),
				Activated:    d.Activated,
				NoOffSeconds: noOff.EpochTime.Seconds(),
				SophonSecond: sophon.EpochTime.Seconds(),
			}
			rows = append(rows, row)
			t.addRow(fmtF(gbps, 2)+" Gbps", fmt.Sprintf("%d", gpus), row.Dominant,
				fmt.Sprintf("%v", row.Activated),
				fmtF(row.NoOffSeconds, 1), fmtF(row.SophonSecond, 1))
		}
	}
	return rows, t, nil
}

// discussionLLMResult captures the LLM-workload sanity check.
type discussionLLMResult struct {
	Candidates    int
	Offloaded     int
	NoOffSeconds  float64
	SophonSeconds float64
}

// discussionLLM runs SOPHON over an LLM shard trace: no sample shrinks
// during preprocessing, so the engine finds zero candidates and the plan is
// exactly No-Off — the paper's "scenarios where SOPHON might not work".
func discussionLLM(opts Options) (discussionLLMResult, table, error) {
	tr, err := dataset.GenerateTextTrace(dataset.TextShards1G(), opts.seed())
	if err != nil {
		return discussionLLMResult{}, table{}, err
	}
	env := defaultEnv(48)
	cands := policy.Candidates(tr)
	beneficial := 0
	for _, c := range cands {
		if c.Saving > 0 {
			beneficial++
		}
	}
	plan, err := policy.NewSophon().Plan(tr, env)
	if err != nil {
		return discussionLLMResult{}, table{}, err
	}
	noOffPlan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
	if err != nil {
		return discussionLLMResult{}, table{}, err
	}
	noOff, err := engine.Run(engine.Config{Trace: tr, Plan: noOffPlan, Env: env, BatchSize: 64})
	if err != nil {
		return discussionLLMResult{}, table{}, err
	}
	sophon, err := engine.Run(engine.Config{Trace: tr, Plan: plan, Env: env, BatchSize: 64})
	if err != nil {
		return discussionLLMResult{}, table{}, err
	}
	res := discussionLLMResult{
		Candidates:    beneficial,
		Offloaded:     plan.OffloadedCount(),
		NoOffSeconds:  noOff.EpochTime.Seconds(),
		SophonSeconds: sophon.EpochTime.Seconds(),
	}
	t := table{
		Title:   "Discussion G: LLM token-shard workload (no shrinking stages)",
		Columns: []string{"Metric", "Value"},
	}
	t.addRow("beneficial candidates", fmt.Sprintf("%d", res.Candidates))
	t.addRow("samples offloaded", fmt.Sprintf("%d", res.Offloaded))
	t.addRow("No-Off epoch (s)", fmtF(res.NoOffSeconds, 1))
	t.addRow("SOPHON epoch (s)", fmtF(res.SophonSeconds, 1))
	t.Notes = append(t.Notes, "SOPHON degenerates to No-Off exactly as §5 predicts")
	return res, t, nil
}
