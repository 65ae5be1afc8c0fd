package main

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// testFlags is the flag set a test hands run: a parse error comes back and
// the log lands in the returned buffer.
func testFlags() (*flag.FlagSet, *bytes.Buffer) {
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("sophon-train", flag.ContinueOnError)
	fs.SetOutput(&stderr)
	return fs, &stderr
}

// serve starts a 16-sample storage server on a port the kernel picks and
// returns its address; the server is closed with the test.
func serve(t *testing.T) string {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{N: 16, Seed: 9, MinDim: 32, MaxDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := storage.NewServer(storage.ServerConfig{
		Store: store, Pipeline: pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: -1}), Cores: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "-workers must be positive, got 0"},
		{[]string{"-batch", "-4"}, "-batch must be positive, got -4"},
		{[]string{"-epochs", "0"}, "-epochs must be positive, got 0"},
		{[]string{"-attempts", "0"}, "-attempts must be positive, got 0"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight must be non-negative, got -1"},
		{[]string{"-lookahead", "-1"}, "-lookahead must be non-negative, got -1"},
		{[]string{"-lookahead=0"}, "-lookahead must be positive when set explicitly (omit it for the default)"},
		{[]string{"-fetch-batch=0"}, "-fetch-batch must be positive when set explicitly (omit it for the default)"},
		{[]string{"-compute-cores", "-2"}, "-compute-cores must be non-negative, got -2"},
		{[]string{"-lookahead-horizon", "-8"}, "-lookahead-horizon must be non-negative, got -8"},
		{[]string{"-staging-bytes", "-1"}, "-staging-bytes must be >= 0, got -1"},
		{[]string{"-heavy-threshold", "-1"}, "-heavy-threshold must be >= 0, got -1"},
		{[]string{"-heavy-threshold", "2", "-plan-file", "p"}, "-heavy-threshold needs the profiling path"},
		{[]string{"-model", "vgg"}, `gpu: unknown model: "vgg"`},
		{[]string{"-policy", "oracle"}, `unknown policy "oracle"`},
		{[]string{"-shard-addrs", "127.0.0.1:1,,127.0.0.1:2"}, "-shard-addrs entry 1 is empty"},
	} {
		fs, _ := testFlags()
		err := run(fs, c.args, &bytes.Buffer{})
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %s", c.args, err, c.want)
		}
	}
	fs, stderr := testFlags()
	err := run(fs, []string{"-prefetch-window", "8"}, &bytes.Buffer{})
	if err == nil || err.Error() != "flag provided but not defined: -prefetch-window" || !strings.Contains(stderr.String(), "Usage: sophon-train [flags]") {
		t.Errorf("unknown flag: err = %v, stderr %q", err, stderr.String())
	}

	// Needs a server to say so: -adaptive under a policy that cannot replan.
	fs, _ = testFlags()
	err = run(fs, []string{"-addr", serve(t), "-crop", "24", "-batch", "8", "-probe-batches", "1", "-epochs", "2", "-policy", "alloff", "-adaptive"}, &bytes.Buffer{})
	if err == nil || err.Error() != "-adaptive requires a sophon policy, got All-Off" {
		t.Errorf("-adaptive -policy alloff: err = %v", err)
	}
}

// The golden is also README's flag table: 28 flags and -version.
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
	if n := strings.Count(stderr.String(), "\n  -"); n != 29 {
		t.Fatalf("%d flags listed, want 28 and -version", n)
	}
}

// Two runs against one in-process server: the planned run prints one line an
// epoch, the adaptive run logs its replan history, and each returns with its
// session closed and nothing left running.
func TestTrainTwoEpochsAndAdaptive(t *testing.T) {
	addr := serve(t)
	common := []string{"-addr", addr, "-crop", "24", "-workers", "2", "-batch", "8", "-probe-batches", "1", "-policy", "sophon"}
	epochLine := regexp.MustCompile(`(?m)^epoch \d+: 16 samples in \S+, fetched \d+\.\d MB, offloaded \d+, gpu util \d+\.\d%$`)
	for _, c := range []struct {
		args    []string
		epochs  int
		history bool
	}{
		{[]string{"-epochs", "2"}, 2, false},
		{[]string{"-epochs", "3", "-adaptive"}, 3, true},
	} {
		base := runtime.NumGoroutine()
		fs, stderr := testFlags()
		var stdout bytes.Buffer
		if err := run(fs, append(c.args, common...), &stdout); err != nil {
			t.Fatalf("%v: %v\n%s", c.args, err, stderr.String())
		}
		if got := len(epochLine.FindAllString(stdout.String(), -1)); got != c.epochs || strings.Count(stdout.String(), "\n") != c.epochs {
			t.Errorf("%v: stdout is not %d epoch lines:\n%s", c.args, c.epochs, stdout.String())
		}
		if !strings.Contains(stderr.String(), "connected: 16 samples, training alexnet with SOPHON") {
			t.Errorf("%v: no connected line:\n%s", c.args, stderr.String())
		}
		if got := strings.Contains(stderr.String(), "history: v1@epoch1 initial"); got != c.history {
			t.Errorf("%v: history line present = %v, want %v:\n%s", c.args, got, c.history, stderr.String())
		}
		// The session's reader and the server's handler exit a moment after Close.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%v: %d goroutines, %d before run\n%s", c.args, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}
