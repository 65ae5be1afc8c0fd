package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// NamedTable pairs a table with a file-name-safe slug.
type NamedTable struct {
	Slug  string
	Table Table
}

// Collect runs every experiment and returns the rendered tables in report
// order.
func Collect(opts Options) ([]NamedTable, error) {
	type step struct {
		slug string
		run  func() (Table, error)
	}
	steps := []step{
		{"table1_capabilities", func() (Table, error) { return Table1(), nil }},
		{"figure1a_size_trace", func() (Table, error) { _, t, err := Figure1a(opts); return t, err }},
		{"figure1b_min_stage", func() (Table, error) { _, t, err := Figure1b(opts); return t, err }},
		{"figure1c_efficiency", func() (Table, error) { _, t, err := Figure1c(opts); return t, err }},
		{"figure1d_gpu_util", func() (Table, error) { _, t, err := Figure1d(opts); return t, err }},
		{"figure3_ample_cpu", func() (Table, error) { _, t, err := Figure3(opts); return t, err }},
		{"figure4_limited_cpu", func() (Table, error) { _, t, err := Figure4(opts); return t, err }},
		{"headline", func() (Table, error) { _, t, err := Headline(opts); return t, err }},
		{"ablation_a_step_guard", func() (Table, error) { _, t, err := AblationStepGuard(opts); return t, err }},
		{"ablation_c_heterogeneous", func() (Table, error) { _, t, err := AblationHeterogeneous(opts); return t, err }},
		{"ablation_d_multitenant", func() (Table, error) { _, t, err := AblationMultiTenant(opts); return t, err }},
		{"ablation_e_local_cache", func() (Table, error) { _, t, err := AblationLocalCache(opts); return t, err }},
		{"ablation_h_oracle", func() (Table, error) { _, t, err := AblationOracle(opts); return t, err }},
		{"validation_model_vs_des", func() (Table, error) { _, t, err := ValidateModel(opts); return t, err }},
		{"validation_generator_fidelity", func() (Table, error) { _, t, err := ValidateGenerator(96, opts.seed()); return t, err }},
		{"discussion_f_bandwidth", func() (Table, error) { _, t, err := DiscussionBandwidthSweep(opts); return t, err }},
		{"discussion_g_llm", func() (Table, error) { _, t, err := DiscussionLLM(opts); return t, err }},
	}
	out := make([]NamedTable, 0, len(steps))
	for _, s := range steps {
		t, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", s.slug, err)
		}
		out = append(out, NamedTable{Slug: s.slug, Table: t})
	}
	return out, nil
}

// RunAll executes every experiment and writes the rendered tables to w —
// the full paper reproduction in one call.
func RunAll(opts Options, w io.Writer) error {
	tables, err := Collect(opts)
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

// CSV renders the table as RFC-4180-ish CSV (quotes around cells containing
// commas or quotes), one header row plus data rows. Notes are omitted.
func (t Table) CSV() string {
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
	tables, err := Collect(opts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eval: mkdir: %w", err)
	}
	for _, nt := range tables {
		path := filepath.Join(dir, nt.Slug+".csv")
		if err := os.WriteFile(path, []byte(nt.Table.CSV()), 0o644); err != nil {
			return fmt.Errorf("eval: write %s: %w", path, err)
		}
	}
	return nil
}
