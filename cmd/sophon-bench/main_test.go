package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
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
		{[]string{"-load", "a.json", "-fleet", "b.json"}, "-fleet and -load each replace the evaluation: one a run"},
		{[]string{"-prefetch", "a.json", "-chaos.seed", "7"}, "-chaos.seed and -prefetch each replace the evaluation: one a run"},
		{[]string{"-chaos.seed", "7", "-chaos.class", "gremlins"}, `soak: unknown chaos class "gremlins"`},
		{[]string{"-chaos.class", "gremlins"}, `soak: unknown chaos class "gremlins"`},
		{[]string{"-gate.prev", "a.json"}, "flag provided but not defined: -gate.prev"},
		{[]string{"-gate.cur", "b.json"}, "flag provided but not defined: -gate.cur"},
		{[]string{"-gate.noise", "0.1"}, "flag provided but not defined: -gate.noise"},
		{[]string{"-gate.allocslack", "1"}, "flag provided but not defined: -gate.allocslack"},
		{[]string{"-json", "a.json"}, "flag provided but not defined: -json"},
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

// The golden is also README's flag table: 14 flags and -version.
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
	if n := strings.Count(stderr.String(), "\n  -"); n != 15 {
		t.Fatalf("%d flags listed, want 14 and -version", n)
	}
}

// TestChaosMode: the soak's verdict is the exit status. One fault-free soak
// writes one report on stdout and nothing else.
func TestChaosMode(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	fs, stderr := testFlags()
	var stdout bytes.Buffer
	if err := run(fs, []string{"-chaos.seed", "12345", "-chaos.class", "none"}, &stdout); err != nil {
		t.Fatalf("fault-free soak: %v\n%s", err, stderr.String())
	}
	var rep soak.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil || !rep.Ok() || strings.Count(stdout.String(), "\n") != 1 {
		t.Fatalf("stdout is not one passing report (%v):\n%s", err, stdout.String())
	}
}
