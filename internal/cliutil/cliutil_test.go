package cliutil

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestVersionLine(t *testing.T) {
	line := versionLine("sophon-x")
	want := fmt.Sprintf("sophon-x %s %s %s/%s", version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if line != want {
		t.Fatalf("VersionLine = %q, want %q", line, want)
	}
}

func TestSetupVersionFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 1, "samples")
	version := setup(fs, "x", "does x")
	if err := fs.Parse([]string{"-version", "-n", "3"}); err != nil {
		t.Fatal(err)
	}
	if !*version {
		t.Fatal("-version not recorded")
	}
	if *n != 3 {
		t.Fatalf("-n = %d, want 3", *n)
	}
}

func TestSetupUsageBanner(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var buf strings.Builder
	fs.SetOutput(&buf)
	fs.Int("n", 1, "samples")
	setup(fs, "sophon-x", "exercises the x subsystem")
	// Unknown flags must produce a non-nil error and the named banner —
	// the behavior main() surfaces as usage + exit 2 under ExitOnError.
	if err := fs.Parse([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag parsed without error")
	}
	out := buf.String()
	for _, want := range []string{"Usage: sophon-x", "exercises the x subsystem", "-version", "-n"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckInts(t *testing.T) {
	positive := map[string]bool{"n": true, "shards": true}
	zeroDef := map[string]bool{"max-inflight": true}

	t.Run("valid", func(t *testing.T) {
		errs := checkInts(nil, positive, zeroDef,
			map[string]int{"n": 10, "shards": 2, "max-inflight": 0})
		if len(errs) != 0 {
			t.Fatalf("unexpected errors: %v", errs)
		}
	})
	t.Run("nonPositive", func(t *testing.T) {
		errs := checkInts(nil, positive, zeroDef, map[string]int{"n": 0})
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "-n must be positive") {
			t.Fatalf("errs = %v", errs)
		}
	})
	t.Run("negativeZeroDefault", func(t *testing.T) {
		errs := checkInts(nil, positive, zeroDef, map[string]int{"max-inflight": -1})
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "non-negative") {
			t.Fatalf("errs = %v", errs)
		}
	})
	t.Run("explicitZero", func(t *testing.T) {
		explicit := map[string]bool{"max-inflight": true}
		errs := checkInts(explicit, positive, zeroDef, map[string]int{"max-inflight": 0})
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "set explicitly") {
			t.Fatalf("errs = %v", errs)
		}
	})
	t.Run("implicitZeroOK", func(t *testing.T) {
		errs := checkInts(nil, positive, zeroDef, map[string]int{"max-inflight": 0})
		if len(errs) != 0 {
			t.Fatalf("unexpected errors: %v", errs)
		}
	})
	t.Run("sortedMultiple", func(t *testing.T) {
		errs := checkInts(nil, positive, zeroDef, map[string]int{"shards": -1, "n": 0})
		if len(errs) != 2 {
			t.Fatalf("errs = %v", errs)
		}
		if !strings.Contains(errs[0].Error(), "-n ") || !strings.Contains(errs[1].Error(), "-shards ") {
			t.Fatalf("errors not sorted by flag name: %v", errs)
		}
	})
}

func TestParseArgsAndIntError(t *testing.T) {
	newSet := func() (*flag.FlagSet, *int) {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs, fs.Int("depth", 0, "queue depth")
	}
	fs, depth := newSet()
	if done, err := ParseArgs(fs, []string{"-depth", "3"}, "x", "does x"); done || err != nil || *depth != 3 {
		t.Fatalf("done %v, err %v, depth %d", done, err, *depth)
	}
	zeroDef := map[string]bool{"depth": true}
	if err := IntError(fs, nil, zeroDef, map[string]int{"depth": *depth}); err != nil {
		t.Fatal(err)
	}
	fs, _ = newSet()
	if done, err := ParseArgs(fs, []string{"-version", "-depth", "3"}, "x", ""); !done || err != nil {
		t.Fatalf("-version: done %v, err %v", done, err)
	}
	fs, _ = newSet()
	if done, err := ParseArgs(fs, []string{"-width", "3"}, "x", ""); done || err == nil {
		t.Fatalf("unknown flag: done %v, err %v", done, err)
	}
	// Only the parsed set knows that -depth=0 was written out.
	fs, depth = newSet()
	if _, err := ParseArgs(fs, []string{"-depth=0"}, "x", ""); err != nil {
		t.Fatal(err)
	}
	if err := IntError(fs, nil, zeroDef, map[string]int{"depth": *depth}); err == nil || !strings.Contains(err.Error(), "set explicitly") {
		t.Fatalf("explicit zero: %v", err)
	}
	fs, depth = newSet()
	if _, err := ParseArgs(fs, nil, "x", ""); err != nil {
		t.Fatal(err)
	}
	if err := IntError(fs, nil, zeroDef, map[string]int{"depth": *depth}); err != nil {
		t.Fatalf("implicit zero: %v", err)
	}
}
