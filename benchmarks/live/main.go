// Command live is the repository's end-to-end benchmark: it runs the real
// trainer ↔ wire ↔ storage-server path in one process on four workloads,
// each pinned to a different binding term of the paper's epoch model, checks
// that what the trainer receives is bit-identical to local preprocessing,
// and prints every metric by name and unit. README.md in the parent
// directory defines the workloads, the metrics and how they interact.
//
//	run.sh --workload link_sophon --seed 1 --seconds 10 --trace 0
//	run.sh -seed 1 -out runs.jsonl            # every workload, both modes
//	run.sh -compare a.jsonl b.jsonl           # apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// metricJSON and resultJSON are the line the driver reads: the last line of
// standard output of a single-workload run.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// record is one line of an -out file: a result and what produced it.
type record struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	PlanDigest string `json:"plan_digest"`
	resultJSON
}

func (r result) json() resultJSON {
	out := resultJSON{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricJSON{}}
	for _, e := range r.Metrics {
		out.Metrics[e.Name] = metricJSON{Value: e.Value, Unit: e.Unit}
	}
	return out
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "live:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seeds the synthetic dataset")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer table from a traced run; both")
	out := fs.String("out", "", "append one JSON record per run to this file")
	spans := fs.String("spans", "", "write the traced run's spans to this file as JSON")
	assertRegime := fs.Bool("assert-regime", false, "fail, instead of warn, when a workload is outside its regime")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments against the manifest's bounds")
	manifest := fs.String("manifest", "BENCHMARK.json", "benchmark manifest -compare reads bounds from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		return compareFiles(*manifest, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	wls := workloads
	if *workloadName != "all" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		wls = []workload{wl}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", *trace)
	}
	cfg := config{Seed: *seed, Seconds: *seconds, MinEpochs: 5, Setups: 2, Sizing: paperSizing,
		AssertRegime: *assertRegime, Log: stdout}

	failed := 0
	for _, wl := range wls {
		for _, traced := range modes {
			fmt.Fprintf(stdout, "== %s seed %d trace %v ==\n", wl.Name, *seed, traced)
			res, err := runWorkload(cfg, wl, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			if !res.Correct {
				failed++
			}
			for _, e := range res.Metrics {
				fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", e.Name, e.Value, e.Unit)
			}
			rj := res.json()
			if *out != "" {
				mode := 0
				if traced {
					mode = 1
				}
				if err := appendJSON(*out, record{Workload: wl.Name, Seed: *seed, Trace: mode, PlanDigest: fmt.Sprintf("%016x", res.PlanDigest), resultJSON: rj}); err != nil {
					return err
				}
			}
			if *spans != "" && traced {
				if err := writeJSON(*spans, res.Spans); err != nil {
					return err
				}
			}
			line, err := json.Marshal(rj)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed a check", failed)
	}
	return nil
}

func appendJSON(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
