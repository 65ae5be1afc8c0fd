package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// goVersionLine matches the one line of a record that names the toolchain
// rather than a simulated quantity.
var goVersionLine = regexp.MustCompile(`(?m)^(\s*"go_version": )"[^"]*"`)

// evaluationDigest is the sha256 of `sophon-bench -seed 2024`'s stdout, the
// evaluation report every simulator change is held to. A stored-format change
// moves the rows priced from real SJPG sizes: SJPG version 5 moved Figure
// 1a's raw row (816.0 → 821.7 KB, 21.5 → 21.6 KB). Shipping the decoded stage
// as planes, 1.5 B a pixel rather than packed RGB, moved the fidelity table's
// "image stages, shipped ÷ law bytes" row (0.341 → 0.440).
const evaluationDigest = "36d90b4468ee48e6d317e97bfebe5cbcad3e34a0efd8bcd2ad97f8fb7141d029"

// TestCommittedRecords regenerates every simulator record at the seed the
// committed files were written with and requires the same bytes, and the
// evaluation report its digest. The records come out of seeded
// discrete-event simulations, so equality with the committed file is also
// run-to-run determinism, and any edit to the model tier that moves a
// simulated number fails here, naming the record.
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
	t.Run("evaluation", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the full evaluation takes seconds")
		}
		fs, _ := testFlags()
		var stdout bytes.Buffer
		if err := run(fs, []string{"-seed", strconv.Itoa(seed)}, &stdout); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != evaluationDigest {
			t.Fatalf("evaluation report at seed %d hashes to %s, want %s", seed, got, evaluationDigest)
		}
	})
}
