package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/persist"
)

// testFlags is the flag set a test hands run: a parse error comes back and
// the usage banner lands in the returned buffer.
func testFlags() (*flag.FlagSet, *bytes.Buffer) {
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("sophon-profile", flag.ContinueOnError)
	fs.SetOutput(&stderr)
	return fs, &stderr
}

func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "0"}, "-cores must be positive, got 0"},
		{[]string{"-n", "-5"}, "-n must be non-negative, got -5"},
		{[]string{"-n=0"}, "-n must be positive when set explicitly (omit it for the default)"},
		{[]string{"-profile", "coco"}, `unknown profile "coco"`},
		{[]string{"-n", "10", "-model", "vgg"}, `gpu: unknown model: "vgg"`},
	} {
		fs, _ := testFlags()
		var stdout bytes.Buffer
		err := run(fs, c.args, &stdout)
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %s", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", c.args, stdout.String())
		}
	}
	// The planner's environment check refuses a non-finite link rate as it
	// refuses a negative one (after the trace summary has printed).
	for _, mbps := range []string{"NaN", "+Inf", "-5"} {
		fs, _ := testFlags()
		err := run(fs, []string{"-n", "10", "-mbps", mbps}, &bytes.Buffer{})
		if err == nil || err.Error() != "policy: bandwidth must be positive and finite" {
			t.Errorf("-mbps %s: err = %v", mbps, err)
		}
	}
	fs, stderr := testFlags()
	err := run(fs, []string{"-storage-cores", "4"}, &bytes.Buffer{})
	if err == nil || err.Error() != "flag provided but not defined: -storage-cores" || !strings.Contains(stderr.String(), "Usage: sophon-profile [flags]") {
		t.Errorf("unknown flag: err = %v, stderr %q", err, stderr.String())
	}
}

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
}

// A 300-sample preview: the report names the plan it previews, and the plan
// it dumps loads back at the size the report gives.
func TestPreviewAndDumps(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan")
	fs, _ := testFlags()
	var stdout bytes.Buffer
	if err := run(fs, []string{"-n", "300", "-cores", "2", "-seed", "5", "-dump-plan", planPath}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dataset openimages-12g: 300 samples, 0.09 GB raw (mean 312 KB)\n",
		"  rrcrop      78.67%  (236 samples)\n",
		"SOPHON plan at 2 storage cores, 500 Mbps, alexnet:\n  offloaded 82/300 samples\n    split 2 (rrcrop prefix): 82 samples\n",
		"plan written to " + planPath + "\n",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
	plan, err := persist.LoadPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N() != 300 || plan.OffloadedCount() != 82 {
		t.Errorf("dumped plan covers %d samples (%d offloaded); the report said 300 and 82", plan.N(), plan.OffloadedCount())
	}
}
