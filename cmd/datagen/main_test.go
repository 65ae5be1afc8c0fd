package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// testFlags is the flag set a test hands run: a parse error comes back and
// everything the command says lands in the returned buffer.
func testFlags() (*flag.FlagSet, *bytes.Buffer) {
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(&stderr)
	return fs, &stderr
}

// stepClock reads 1.5 s later every time it is asked.
func stepClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(1500 * time.Millisecond)
		return t
	}
}

func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "-n must be positive, got 0"},
		{[]string{"-min-dim", "-1"}, "-min-dim must be positive, got -1"},
		{[]string{"-max-dim", "0"}, "-max-dim must be positive, got 0"},
		{[]string{"-min-dim", "90", "-max-dim", "80"}, "dataset: bad dim range [90, 80]"},
		{[]string{"-min-dim", "4"}, "dataset: bad dim range [4, 480]"},
	} {
		fs, stderr := testFlags()
		err := run(fs, append(c.args, "-out", t.TempDir()), time.Now)
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %s", c.args, err, c.want)
		}
		if stderr.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", c.args, stderr.String())
		}
	}
	fs, stderr := testFlags()
	err := run(fs, []string{"-samples", "3"}, time.Now)
	if err == nil || err.Error() != "flag provided but not defined: -samples" || !strings.Contains(stderr.String(), "Usage: datagen [flags]") {
		t.Errorf("unknown flag: err = %v, stderr %q", err, stderr.String())
	}
}

func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs, stderr := testFlags()
	if err := run(fs, []string{"-help"}, time.Now); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if stderr.String() != string(want) {
		t.Fatalf("-help prints\n%s\nwant\n%s", stderr.String(), want)
	}
}

// The directory datagen writes loads back as the bytes the same set
// materialises to in memory, and the run says how long the build took.
func TestRunWritesTheSetItDescribes(t *testing.T) {
	dir := t.TempDir()
	fs, stderr := testFlags()
	err := run(fs, []string{"-out", dir, "-n", "6", "-seed", "11", "-name", "six", "-min-dim", "24", "-max-dim", "72"}, stepClock())
	if err != nil {
		t.Fatal(err)
	}
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{Name: "six", N: 6, Seed: 11, MinDim: 24, MaxDim: 72})
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "six" || len(got) != len(want) {
		t.Fatalf("loaded %q with %d samples", ds.Name(), len(got))
	}
	var total int
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("sample %d on disk differs from ImageSet.Materialize", i)
		}
		total += len(want[i])
	}
	line := fmt.Sprintf("datagen: store ready: 6 objects, %.1f MB in 1.50 s on %d cores\n", float64(total)/1e6, runtime.GOMAXPROCS(0))
	if stderr.String() != line {
		t.Fatalf("stderr %q, want %q", stderr.String(), line)
	}
}
