package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/raceflag"
)

// logWriter sends the benchmark's human-readable report to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestSmoke runs the whole command path — set-up twice (so the plan digest
// is compared), artifact check, timed phase, traced phase, layer replay and
// simulator — on every workload at a size that finishes in seconds, and
// holds the emitted metric names and units to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timings and pool statistics are meaningless under the race detector")
	}
	var mf struct {
		manifestFile
		PerLayer []manifestMetric `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	cfg := config{Seed: 1, N: 48, MinEpochs: 2, Setups: 2, Sizing: sizing{MinDim: 48, MaxDim: 160, Crop: 32}, Log: logWriter{t}}
	for i, wl := range workloads {
		if mf.Workloads[i].Name != wl.Name {
			t.Errorf("manifest workload %d is %q, want %q", i, mf.Workloads[i].Name, wl.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(cfg, wl, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := mf.EndToEnd
			if traced {
				want = mf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, manifest lists %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for k, e := range res.Metrics {
				if e.Name != want[k].Name || e.Unit != want[k].Unit {
					t.Errorf("%s traced=%v metric %d: %s [%s], manifest has %s [%s]", wl.Name, traced, k, e.Name, e.Unit, want[k].Name, want[k].Unit)
				}
				if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
					t.Errorf("%s %s = %v", wl.Name, e.Name, e.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := manifestMetric{Name: "latency", Better: "lower", Bound: 0.25}
	higher := manifestMetric{Name: "rate", Better: "higher", Bound: 0.25}
	base := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		b    []float64
		mm   manifestMetric
		want verdict
	}{
		{"same", []float64{100.2, 99.8, 100, 101, 99.5}, lower, withinBound},
		// 10 % worse is inside the manifest's 25 % but outside max(5 %, 2 × spread).
		{"slower", []float64{110, 111, 109, 110, 110.5}, lower, worse},
		{"faster", []float64{90, 91, 89, 90, 90.5}, lower, better},
		{"rate fell", []float64{90, 91, 89, 90, 90.5}, higher, worse},
		{"noisy", []float64{60, 150, 95, 130, 107}, lower, unresolved},
	} {
		if got, _ := judge(base, c.b, c.mm); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeExact(t *testing.T) {
	lower := manifestMetric{Name: "bytes", Better: "lower"}
	a := []float64{100, 200, 300}
	for _, c := range []struct {
		name string
		b    []float64
		want verdict
	}{
		{"identical", []float64{100, 200, 300}, withinBound},
		{"one seed fewer bytes", []float64{100, 199, 300}, better},
		{"one seed one byte more", []float64{99, 200, 301}, worse},
	} {
		if got := judgeExact(a, c.b, lower); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
