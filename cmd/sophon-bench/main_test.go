package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/soak"
)

// testFlags is the flag set a test hands run: a parse error comes back and
// the log lands in the returned buffer.
func testFlags() (*flag.FlagSet, *bytes.Buffer) {
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("sophon-bench", flag.ContinueOnError)
	fs.SetOutput(&stderr)
	return fs, &stderr
}

func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-openimages", "-1"}, "-openimages must be non-negative, got -1"},
		{[]string{"-imagenet=0"}, "-imagenet must be positive when set explicitly (omit it for the default)"},
		{[]string{"-gate.prev", "a.json"}, "-gate.prev and -gate.cur must be set together"},
		{[]string{"-gate.cur", "b.json"}, "-gate.prev and -gate.cur must be set together"},
		{[]string{"-load", "a.json", "-fleet", "b.json"}, "-fleet and -load each replace the evaluation: one a run"},
		{[]string{"-json", "a.json", "-chaos.seed", "7"}, "-chaos.seed and -json each replace the evaluation: one a run"},
		{[]string{"-gate.prev", "a.json", "-gate.cur", "b.json", "-json", "a.json"}, "-gate.prev and -json each replace the evaluation: one a run"},
		{[]string{"-chaos.seed", "7", "-chaos.class", "gremlins"}, `soak: unknown chaos class "gremlins"`},
		{[]string{"-chaos.class", "gremlins"}, `soak: unknown chaos class "gremlins"`},
		{[]string{"-gate.prev", "no-such.json", "-gate.cur", "b.json"}, "open no-such.json:"},
		{[]string{"-convert", "a.json"}, "flag provided but not defined: -convert"},
	} {
		fs, _ := testFlags()
		var stdout bytes.Buffer
		err := run(fs, c.args, &stdout)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %s", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: refused, yet wrote %q", c.args, stdout.String())
		}
	}
	fs, stderr := testFlags()
	err := run(fs, []string{"-prefetch.shards", "8"}, &bytes.Buffer{})
	if err == nil || err.Error() != "flag provided but not defined: -prefetch.shards" || !strings.Contains(stderr.String(), "Usage: sophon-bench [flags]") {
		t.Errorf("unknown flag: err = %v, stderr %q", err, stderr.String())
	}
}

// The golden is also README's flag table: 19 flags and -version.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs, stderr := testFlags()
	if err := run(fs, []string{"-help"}, &bytes.Buffer{}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if stderr.String() != string(want) {
		t.Fatalf("-help prints\n%s\nwant\n%s", stderr.String(), want)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 20 {
		t.Fatalf("%d flags listed, want 19 and -version", n)
	}
}

// TestGateAndChaosModes: the two modes whose verdict is the exit status. The
// gate passes a record against itself and fails it against a copy with one
// more allocation; one fault-free soak writes one report on stdout and nothing
// else.
func TestGateAndChaosModes(t *testing.T) {
	base := filepath.Join("..", "..", "BENCH_alloc.json")
	fs, stderr := testFlags()
	if err := run(fs, []string{"-gate.prev", base, "-gate.cur", base}, &bytes.Buffer{}); err != nil || !strings.Contains(stderr.String(), "gate PASS") {
		t.Fatalf("a record against itself: err %v, log %q", err, stderr.String())
	}

	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	worse := filepath.Join(t.TempDir(), "worse.json")
	if err := os.WriteFile(worse, bytes.Replace(data, []byte(`"allocs_per_op": 1,`), []byte(`"allocs_per_op": 2,`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, stderr = testFlags()
	err = run(fs, []string{"-gate.prev", base, "-gate.cur", worse}, &bytes.Buffer{})
	if err == nil || !strings.HasPrefix(err.Error(), "gate: 1 regressions") || !strings.Contains(stderr.String(), "gate FAIL: ") {
		t.Fatalf("one more allocation: err %v, log %q", err, stderr.String())
	}
	fs, _ = testFlags()
	if err := run(fs, []string{"-gate.prev", base, "-gate.cur", worse, "-gate.allocslack", "1"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("one more allocation under -gate.allocslack 1: %v", err)
	}
	fs, _ = testFlags()
	slo := filepath.Join("..", "..", "BENCH_pr7.json")
	if err := run(fs, []string{"-gate.prev", base, "-gate.cur", slo}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "different record shapes") {
		t.Fatalf("an alloc record against an SLO record: err %v", err)
	}

	if testing.Short() {
		return
	}
	fs, stderr = testFlags()
	var stdout bytes.Buffer
	if err := run(fs, []string{"-chaos.seed", "12345", "-chaos.class", "none"}, &stdout); err != nil {
		t.Fatalf("fault-free soak: %v\n%s", err, stderr.String())
	}
	var rep soak.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil || !rep.Ok() || strings.Count(stdout.String(), "\n") != 1 {
		t.Fatalf("stdout is not one passing report (%v):\n%s", err, stdout.String())
	}
}
