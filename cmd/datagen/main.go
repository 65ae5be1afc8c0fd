// Command datagen writes a synthetic dataset to disk: one SJPG file per
// sample plus a manifest.json, in the layout dataset.LoadDir (and therefore
// sophon-server -data-dir) reads back.
//
// Usage:
//
//	datagen -out ./data -n 100 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cliutil"
	"repro/internal/dataset"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], time.Now); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

// run is the command: flags declared on fs (main's exits on a bad command
// line, a test's returns the error), messages on fs.Output(), and now timing
// the build for the "store ready" line.
func run(fs *flag.FlagSet, args []string, now func() time.Time) error {
	out := fs.String("out", "./data", "output directory")
	n := fs.Int("n", 100, "number of samples")
	seed := fs.Uint64("seed", 1, "dataset seed")
	name := fs.String("name", "synthetic", "dataset name")
	minDim := fs.Int("min-dim", 80, "smallest image side (px)")
	maxDim := fs.Int("max-dim", 480, "largest image side (px)")
	if done, err := cliutil.ParseArgs(fs, args, "datagen", "Writes a synthetic SJPG dataset directory for sophon-server -data-dir."); done || err != nil {
		return err
	}
	if err := cliutil.IntError(fs,
		map[string]bool{"n": true, "min-dim": true, "max-dim": true},
		nil,
		map[string]int{"n": *n, "min-dim": *minDim, "max-dim": *maxDim}); err != nil {
		return err
	}

	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: *name, N: *n, Seed: *seed, MinDim: *minDim, MaxDim: *maxDim,
	})
	if err != nil {
		return err
	}
	start := now()
	m, err := dataset.WriteDir(set, *out, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(fs.Output(), "datagen: store ready: %d objects, %.1f MB in %.2f s on %d cores\n",
		m.N, float64(m.TotalBytes)/1e6, now().Sub(start).Seconds(), runtime.GOMAXPROCS(0))
	fmt.Printf("wrote %d samples (%.1f MB) to %s\n", m.N, float64(m.TotalBytes)/1e6, *out)
	return nil
}
