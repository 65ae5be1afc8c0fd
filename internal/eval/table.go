// Package eval is the experiment harness: one constructor per table and
// figure in the paper's evaluation, each returning structured numbers plus
// a rendered text table. cmd/sophon-bench and the repository's bench_test.go
// both drive this package, and EXPERIMENTS.md records its output.
package eval

import (
	"fmt"
	"strings"

	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// table is a rendered experiment result.
type table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// addRow appends one row.
func (t *table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// defaultEnv mirrors the paper's testbed: a 500 Mbps link, 48 compute
// cores, identical CPUs, AlexNet as the trained model.
func defaultEnv(storageCores int) policy.Env {
	return policy.Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    storageCores,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
}

// Options scales the experiments. Zero values mean paper-scale datasets.
type Options struct {
	Seed       uint64
	OpenImages int // sample-count override for the OpenImages-12G profile
	ImageNet   int // sample-count override for the ImageNet-11G profile
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 2024
	}
	return o.Seed
}

func gb(bytes int64) float64 { return float64(bytes) / 1e9 }

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
