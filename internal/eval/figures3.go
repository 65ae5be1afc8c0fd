package eval

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/policy"
)

// policyRun is one bar of Figures 3/4: a policy's epoch outcome.
type policyRun struct {
	Policy       string
	EpochSeconds float64
	TrafficGB    float64
	Offloaded    int
	StorageBusy  time.Duration
}

// fig3Result holds the ample-CPU comparison for one dataset.
type fig3Result struct {
	Dataset string
	Runs    []policyRun
}

// run looks up a policy's outcome by name.
func (r fig3Result) run(name string) (policyRun, bool) {
	for _, run := range r.Runs {
		if run.Policy == name {
			return run, true
		}
	}
	return policyRun{}, false
}

// runPolicies simulates every policy over a trace.
func runPolicies(tr *dataset.Trace, env policy.Env) ([]policyRun, error) {
	var runs []policyRun
	for _, p := range policy.All() {
		res, plan, err := engine.RunPolicy(p, tr, env, 256)
		if err != nil {
			return nil, fmt.Errorf("eval: %s on %s: %w", p.Name(), tr.Name, err)
		}
		runs = append(runs, policyRun{
			Policy:       p.Name(),
			EpochSeconds: res.EpochTime.Seconds(),
			TrafficGB:    gb(res.TrafficBytes),
			Offloaded:    plan.OffloadedCount(),
			StorageBusy:  res.StorageBusy,
		})
	}
	return runs, nil
}

// figure3 reproduces the ample-CPU evaluation: per-epoch training time and
// data traffic for every policy on both datasets with 48 storage cores.
func figure3(opts Options) ([]fig3Result, table, error) {
	t := table{
		Title:   "Figure 3: per-epoch training time and data traffic, ample (48) storage cores",
		Columns: []string{"Dataset", "Policy", "Epoch (s)", "Traffic (GB)", "Traffic vs No-Off", "Offloaded"},
	}
	var out []fig3Result
	for _, pr := range []dataset.Profile{profileOI(opts), profileIN(opts)} {
		tr, err := dataset.GenerateTrace(pr, opts.seed())
		if err != nil {
			return nil, table{}, err
		}
		runs, err := runPolicies(tr, defaultEnv(48))
		if err != nil {
			return nil, table{}, err
		}
		res := fig3Result{Dataset: pr.Name, Runs: runs}
		base, _ := res.run("No-Off")
		for _, run := range runs {
			t.addRow(pr.Name, run.Policy,
				fmtF(run.EpochSeconds, 1),
				fmtF(run.TrafficGB, 2),
				fmtF(run.TrafficGB/base.TrafficGB, 2)+"x",
				fmt.Sprintf("%d", run.Offloaded))
		}
		out = append(out, res)
	}
	return out, t, nil
}

// fig4Result holds the limited-CPU sweep on OpenImages.
type fig4Result struct {
	Cores []int
	// Runs maps policy name to one policyRun per core count (same order
	// as Cores).
	Runs map[string][]policyRun
}

// figure4 sweeps storage-core budgets on OpenImages for every policy.
func figure4(opts Options) (fig4Result, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return fig4Result{}, table{}, err
	}
	res := fig4Result{
		Cores: []int{0, 1, 2, 3, 4, 5, 6, 8},
		Runs:  map[string][]policyRun{},
	}
	t := table{
		Title:   "Figure 4: OpenImages epoch time (s) vs storage-node CPU cores",
		Columns: append([]string{"Policy"}, coreColumns(res.Cores)...),
	}
	for _, p := range policy.All() {
		row := []string{p.Name()}
		for _, cores := range res.Cores {
			env := defaultEnv(cores)
			r, plan, err := engine.RunPolicy(p, tr, env, 256)
			if err != nil {
				return fig4Result{}, table{}, fmt.Errorf("eval: %s at %d cores: %w", p.Name(), cores, err)
			}
			res.Runs[p.Name()] = append(res.Runs[p.Name()], policyRun{
				Policy:       p.Name(),
				EpochSeconds: r.EpochTime.Seconds(),
				TrafficGB:    gb(r.TrafficBytes),
				Offloaded:    plan.OffloadedCount(),
				StorageBusy:  r.StorageBusy,
			})
			row = append(row, fmtF(r.EpochTime.Seconds(), 1))
		}
		t.addRow(row...)
	}
	t.Notes = append(t.Notes, "All-Off/Resize-Off/SOPHON fall back to no offloading at 0 cores")
	return res, t, nil
}

func coreColumns(cores []int) []string {
	out := make([]string, len(cores))
	for i, c := range cores {
		out[i] = fmt.Sprintf("%dc", c)
	}
	return out
}

// headlineRow is one scenario of the paper's 1.2–2.2× claim.
type headlineRow struct {
	Scenario         string
	TrafficReduction float64 // No-Off traffic / SOPHON traffic
	TimeSpeedup      float64 // best-baseline epoch / SOPHON epoch
}

// headline computes the paper's abstract-level claim — SOPHON reduces data
// traffic and training time by 1.2–2.2× over existing solutions — from the
// Figure 3 runs.
func headline(opts Options) ([]headlineRow, table, error) {
	fig3, _, err := figure3(opts)
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title:   "Headline: SOPHON vs existing solutions",
		Columns: []string{"Scenario", "Traffic reduction", "Epoch speedup vs best baseline"},
	}
	var rows []headlineRow
	for _, res := range fig3 {
		sophon, ok := res.run("SOPHON")
		if !ok {
			return nil, table{}, fmt.Errorf("eval: no SOPHON run for %s", res.Dataset)
		}
		noOff, _ := res.run("No-Off")
		bestBaseline := noOff
		for _, run := range res.Runs {
			if run.Policy != "SOPHON" && run.EpochSeconds < bestBaseline.EpochSeconds {
				bestBaseline = run
			}
		}
		row := headlineRow{
			Scenario:         res.Dataset + " @48 cores",
			TrafficReduction: noOff.TrafficGB / sophon.TrafficGB,
			TimeSpeedup:      bestBaseline.EpochSeconds / sophon.EpochSeconds,
		}
		rows = append(rows, row)
		t.addRow(row.Scenario, fmtF(row.TrafficReduction, 2)+"x", fmtF(row.TimeSpeedup, 2)+"x")
	}
	return rows, t, nil
}
