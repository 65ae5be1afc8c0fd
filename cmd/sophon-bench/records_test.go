package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// goVersionLine matches the one line of a record that names the toolchain
// rather than a simulated quantity.
var goVersionLine = regexp.MustCompile(`(?m)^(\s*"go_version": )"[^"]*"`)

// TestCommittedRecords regenerates every simulator record at the seed the
// committed files were written with and requires the same bytes. The records
// come out of seeded discrete-event simulations, so equality with the
// committed file is also run-to-run determinism, and any edit to the model
// tier that moves a simulated number fails here, naming the record.
func TestCommittedRecords(t *testing.T) {
	const seed = 2024
	for _, rec := range []struct {
		file  string
		write func(path string, seed uint64) error
	}{
		{"BENCH_pr5.json", writeAdaptiveJSON},
		{"BENCH_pr6.json", writeFleetJSON},
		{"BENCH_pr7.json", writeLoadJSON},
		{"BENCH_pr8.json", writePrefetchJSON},
		{"BENCH_pr9.json", writePrepschedJSON},
		{"BENCH_pr10.json", writeFidelityJSON},
	} {
		t.Run(rec.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", rec.file))
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), rec.file)
			if err := rec.write(out, seed); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			strip := func(b []byte) []byte { return goVersionLine.ReplaceAll(b, []byte(`$1""`)) }
			if !bytes.Equal(strip(got), strip(want)) {
				t.Fatalf("regenerated %s differs from the committed record (%d vs %d bytes)", rec.file, len(got), len(want))
			}
		})
	}
}
