package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// namedTable pairs a table with a file-name-safe slug.
type namedTable struct {
	Slug  string
	Table table
}

// collect runs every experiment and returns the rendered tables in report
// order.
func collect(opts Options) ([]namedTable, error) {
	type step struct {
		slug string
		run  func() (table, error)
	}
	steps := []step{
		{"table1_capabilities", func() (table, error) { return table1(), nil }},
		{"figure1a_size_trace", func() (table, error) { _, t, err := figure1a(opts); return t, err }},
		{"figure1b_min_stage", func() (table, error) { _, t, err := figure1b(opts); return t, err }},
		{"figure1c_efficiency", func() (table, error) { _, t, err := figure1c(opts); return t, err }},
		{"figure1d_gpu_util", func() (table, error) { _, t, err := figure1d(opts); return t, err }},
		{"figure3_ample_cpu", func() (table, error) { _, t, err := figure3(opts); return t, err }},
		{"figure4_limited_cpu", func() (table, error) { _, t, err := figure4(opts); return t, err }},
		{"headline", func() (table, error) { _, t, err := headline(opts); return t, err }},
		{"ablation_a_step_guard", func() (table, error) { _, t, err := ablationStepGuard(opts); return t, err }},
		{"ablation_c_heterogeneous", func() (table, error) { _, t, err := ablationHeterogeneous(opts); return t, err }},
		{"ablation_d_multitenant", func() (table, error) { _, t, err := ablationMultiTenant(opts); return t, err }},
		{"ablation_e_local_cache", func() (table, error) { _, t, err := ablationLocalCache(opts); return t, err }},
		{"ablation_h_oracle", func() (table, error) { _, t, err := ablationOracle(opts); return t, err }},
		{"validation_model_vs_des", func() (table, error) { _, t, err := validateModel(opts); return t, err }},
		{"validation_generator_fidelity", func() (table, error) { _, t, err := validateGenerator(96, opts.seed()); return t, err }},
		{"discussion_f_bandwidth", func() (table, error) { _, t, err := discussionBandwidthSweep(opts); return t, err }},
		{"discussion_g_llm", func() (table, error) { _, t, err := discussionLLM(opts); return t, err }},
	}
	out := make([]namedTable, 0, len(steps))
	for _, s := range steps {
		t, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", s.slug, err)
		}
		out = append(out, namedTable{Slug: s.slug, Table: t})
	}
	return out, nil
}

// RunAll executes every experiment and writes the rendered tables to w —
// the full paper reproduction in one call.
func RunAll(opts Options, w io.Writer) error {
	tables, err := collect(opts)
	if err != nil {
		return err
	}
	for _, nt := range tables {
		if _, err := fmt.Fprintln(w, nt.Table.String()); err != nil {
			return err
		}
	}
	return nil
}

// csv renders the table as RFC-4180-ish csv (quotes around cells containing
// commas or quotes), one header row plus data rows. Notes are omitted.
func (t table) csv() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSVDir runs every experiment and writes one CSV file per table into
// dir (created if needed) — plot-ready data for external tooling.
func WriteCSVDir(opts Options, dir string) error {
	tables, err := collect(opts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eval: mkdir: %w", err)
	}
	for _, nt := range tables {
		path := filepath.Join(dir, nt.Slug+".csv")
		if err := os.WriteFile(path, []byte(nt.Table.csv()), 0o644); err != nil {
			return fmt.Errorf("eval: write %s: %w", path, err)
		}
	}
	return nil
}
