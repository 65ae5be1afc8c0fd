package eval

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/policy"
)

// validationRow compares SOPHON's analytic epoch model (the max of the four
// metrics the decision engine reasons with) against the discrete-event
// simulation of the same plan.
type validationRow struct {
	Scenario     string
	PredictedSec float64
	SimulatedSec float64
	ErrorPct     float64
}

// validateModel runs the comparison across the policies and core counts the
// evaluation uses. Small errors justify the paper's use of the max() model
// inside the greedy loop.
func validateModel(opts Options) ([]validationRow, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title:   "Validation: analytic epoch model vs discrete-event simulation (OpenImages)",
		Columns: []string{"Scenario", "Model (s)", "DES (s)", "Error"},
	}
	var rows []validationRow
	add := func(name string, p policy.Policy, cores int) error {
		env := defaultEnv(cores)
		plan, err := p.Plan(tr, env)
		if err != nil {
			return err
		}
		m, err := policy.ModelFor(tr, plan, env)
		if err != nil {
			return err
		}
		sim, err := engine.Run(engine.Config{Trace: tr, Plan: plan, Env: env, BatchSize: 256})
		if err != nil {
			return err
		}
		row := validationRow{
			Scenario:     fmt.Sprintf("%s @%dc", name, cores),
			PredictedSec: m.Predicted().Seconds(),
			SimulatedSec: sim.EpochTime.Seconds(),
		}
		row.ErrorPct = 100 * math.Abs(row.PredictedSec-row.SimulatedSec) / row.SimulatedSec
		rows = append(rows, row)
		t.addRow(row.Scenario, fmtF(row.PredictedSec, 1), fmtF(row.SimulatedSec, 1),
			fmtF(row.ErrorPct, 1)+"%")
		return nil
	}
	for _, p := range policy.All() {
		if err := add(p.Name(), p, 48); err != nil {
			return nil, table{}, err
		}
	}
	for _, cores := range []int{1, 2, 4} {
		if err := add("SOPHON", policy.NewSophon(), cores); err != nil {
			return nil, table{}, err
		}
	}
	return rows, t, nil
}

// ablationOracleRow compares SOPHON against the CPU-oblivious traffic
// lower bound at one core count.
type ablationOracleRow struct {
	Cores         int
	OracleSec     float64
	SophonSec     float64
	OracleTraffic float64 // GB
	SophonTraffic float64 // GB
}

// ablationOracle runs Ablation H: how close does the efficiency-ordered
// greedy loop get to the per-sample optimum? With ample cores they should
// coincide; under CPU constraints Oracle's traffic optimum backfires.
func ablationOracle(opts Options) ([]ablationOracleRow, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title:   "Ablation H: SOPHON vs the CPU-oblivious Oracle (OpenImages)",
		Columns: []string{"Cores", "Oracle (s)", "SOPHON (s)", "Oracle GB", "SOPHON GB"},
	}
	var rows []ablationOracleRow
	for _, cores := range []int{1, 2, 4, 48} {
		env := defaultEnv(cores)
		oracle, _, err := engine.RunPolicy(policy.Oracle{}, tr, env, 256)
		if err != nil {
			return nil, table{}, err
		}
		sophon, _, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
		if err != nil {
			return nil, table{}, err
		}
		row := ablationOracleRow{
			Cores:         cores,
			OracleSec:     oracle.EpochTime.Seconds(),
			SophonSec:     sophon.EpochTime.Seconds(),
			OracleTraffic: gb(oracle.TrafficBytes),
			SophonTraffic: gb(sophon.TrafficBytes),
		}
		rows = append(rows, row)
		t.addRow(fmt.Sprintf("%d", cores),
			fmtF(row.OracleSec, 1), fmtF(row.SophonSec, 1),
			fmtF(row.OracleTraffic, 2), fmtF(row.SophonTraffic, 2))
	}
	t.Notes = append(t.Notes,
		"Oracle minimizes traffic unconditionally; with few cores its storage-CPU bill dominates")
	return rows, t, nil
}
