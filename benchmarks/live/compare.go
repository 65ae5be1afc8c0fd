package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifestMetric is one end_to_end entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
}

func readManifest(path string) (manifestFile, error) {
	var m manifestFile
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readRuns returns the untraced records of an -out file by workload, each
// workload's records sorted by seed.
func readRuns(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	for _, rs := range runs {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return runs, sc.Err()
}

func valuesOf(rs []record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver measures spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// summarize returns both medians and the larger IQR÷median of the two sets.
func summarize(a, b []float64) (medA, medB, spread float64) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	return medA, medB, max((q3a-q1a)/medA, (q3b-q1b)/medB)
}

type verdict string

const (
	better      verdict = "better"
	withinBound verdict = "within bound"
	worse       verdict = "worse"
	unresolved  verdict = "unresolved"
)

// exactMetrics are functions of the seed and the code alone: two runs of one
// commit on one seed report the same value to the last digit, so -compare
// holds them to a bound of zero, seed by seed. The bounds BENCHMARK.json gives
// them only cover the spread across different seeds.
var exactMetrics = map[string]bool{"wire_bytes_per_sample": true, "mean_quality": true, "ok_frac": true}

// judgeExact compares seed-aligned values: any seed worse is worse.
func judgeExact(a, b []float64, mm manifestMetric) verdict {
	v := withinBound
	for i := range a {
		d := b[i] - a[i]
		if mm.Better == "higher" {
			d = -d
		}
		if d > 0 {
			return worse
		}
		if d < 0 {
			v = better
		}
	}
	return v
}

// judge compares set b against set a for a timed metric. The change is how
// much worse b's median is as a share of a's. The bound is the issue's rule,
// max(5 %, 2 × spread), capped by the manifest's: a workload that repeats
// within a percent is held to 5 % even though the manifest's one bound per
// metric has to cover the noisiest workload. A spread above the manifest's
// bound leaves the pair unresolved unless every run of b beats every run of a.
func judge(a, b []float64, mm manifestMetric) (v verdict, bound float64) {
	medA, medB, spread := summarize(a, b)
	bound = min(mm.Bound, max(0.05, 2*spread))
	sign := 1.0
	if mm.Better == "higher" {
		sign = -1
	}
	change := sign * (medB - medA) / medA
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return better, bound
	case spread > mm.Bound:
		return unresolved, bound
	case change > bound:
		return worse, bound
	case change < -spread:
		return better, bound
	}
	return withinBound, bound
}

// compareFiles prints one row per (metric, workload) with both medians, the
// larger spread of the two sets, the bound applied and the verdict, and fails
// when any row is worse. Both files must hold the same seeds per workload.
func compareFiles(manifestPath, pathA, pathB string, w io.Writer) error {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	counts := map[verdict]int{}
	sameDigest, pairs := 0, 0
	fmt.Fprintf(w, "%-24s %-20s %14s %14s %8s %7s  %s\n", "metric", "workload", "median A", "median B", "spread", "bound", "verdict")
	for _, wl := range mf.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) < 2 || len(ra) != len(rb) {
			return fmt.Errorf("%s: need the same seeds, at least two, in each file; have %d and %d runs", wl.Name, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Seed != rb[i].Seed {
				return fmt.Errorf("%s: seed %d in %s has no partner in %s", wl.Name, ra[i].Seed, pathA, pathB)
			}
			pairs++
			if ra[i].PlanDigest == rb[i].PlanDigest {
				sameDigest++
			}
		}
	}
	for _, mm := range mf.EndToEnd {
		for _, wl := range mf.Workloads {
			va, vb := valuesOf(a[wl.Name], mm.Name), valuesOf(b[wl.Name], mm.Name)
			medA, medB, spread := summarize(va, vb)
			var v verdict
			var bound float64
			if exactMetrics[mm.Name] {
				v = judgeExact(va, vb, mm)
			} else {
				v, bound = judge(va, vb, mm)
			}
			counts[v]++
			fmt.Fprintf(w, "%-24s %-20s %14.6g %14.6g %8.4f %7.3f  %s\n", mm.Name, wl.Name, medA, medB, spread, bound, v)
		}
	}
	fmt.Fprintf(w, "plan digests identical on %d of %d (workload, seed) pairs\n", sameDigest, pairs)
	fmt.Fprintf(w, "%d better, %d within bound, %d worse, %d unresolved\n", counts[better], counts[withinBound], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", counts[worse])
	}
	return nil
}
