package perfbench

import (
	"os"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func sampleRecord() SLORecord {
	return SLORecord{
		Kind:      "SLO",
		Version:   SLORecordVersion,
		GoVersion: "go1.24.0",
		Seed:      2024,
		Scenarios: []SLOScenario{{
			Name:          "steady",
			Sessions:      2400,
			Offered:       10000,
			Completed:     9990,
			OfferedRPS:    5000,
			ThroughputRPS: 4995,
			Classes: map[string]SLOClass{
				"hit":       {Count: 4000, P50Ms: 0.03, P99Ms: 0.05, P999Ms: 0.06},
				"offloaded": {Count: 4000, P50Ms: 1.2, P99Ms: 6.5, P999Ms: 9.8},
				"raw":       {Count: 2000, P50Ms: 2.4, P99Ms: 11.0, P999Ms: 16.0},
			},
		}},
	}
}

func TestCompareSLOPasses(t *testing.T) {
	prev := sampleRecord()
	cur := sampleRecord()
	// Jitter within the 10% noise band must pass.
	s := cur.Scenarios[0]
	s.ThroughputRPS *= 0.95
	c := s.Classes["raw"]
	c.P99Ms *= 1.08
	s.Classes["raw"] = c
	cur.Scenarios[0] = s
	if regs := CompareSLO(prev, cur, 0); len(regs) != 0 {
		t.Fatalf("within-noise diff failed the gate: %v", regs)
	}
}

// TestCompareSLOCatchesInjectedP99Regression is the acceptance check: a 20%
// p99 regression on one class must fail the gate at the default threshold.
func TestCompareSLOCatchesInjectedP99Regression(t *testing.T) {
	prev := sampleRecord()
	cur := sampleRecord()
	s := cur.Scenarios[0]
	c := s.Classes["offloaded"]
	c.P99Ms *= 1.20
	s.Classes["offloaded"] = c
	cur.Scenarios[0] = s
	regs := CompareSLO(prev, cur, 0)
	if len(regs) != 1 {
		t.Fatalf("want exactly the injected p99 regression, got %v", regs)
	}
	t.Logf("gate caught: %s", regs[0])
}

func TestCompareSLOCatchesThroughputDrop(t *testing.T) {
	prev := sampleRecord()
	cur := sampleRecord()
	cur.Scenarios[0].ThroughputRPS *= 0.80
	if regs := CompareSLO(prev, cur, 0); len(regs) != 1 {
		t.Fatalf("want the throughput regression, got %v", regs)
	}
}

func TestCompareSLOStructuralRegressions(t *testing.T) {
	prev := sampleRecord()

	cur := sampleRecord()
	cur.Scenarios = nil
	if regs := CompareSLO(prev, cur, 0); len(regs) != 1 {
		t.Fatalf("missing scenario: got %v", regs)
	}

	cur = sampleRecord()
	delete(cur.Scenarios[0].Classes, "hit")
	if regs := CompareSLO(prev, cur, 0); len(regs) != 1 {
		t.Fatalf("missing class: got %v", regs)
	}

	cur = sampleRecord()
	cur.Version = SLORecordVersion + 1
	if regs := CompareSLO(prev, cur, 0); len(regs) != 1 {
		t.Fatalf("version skew: got %v", regs)
	}

	// Extra scenarios and classes in cur are new baselines, not failures.
	cur = sampleRecord()
	cur.Scenarios = append(cur.Scenarios, SLOScenario{Name: "overload"})
	if regs := CompareSLO(prev, cur, 0); len(regs) != 0 {
		t.Fatalf("new scenario failed the gate: %v", regs)
	}
}

func TestScenarioFromReport(t *testing.T) {
	rep := &loadgen.Report{
		Sessions:      100,
		Offered:       1000,
		Completed:     990,
		Shed:          10,
		ThroughputRPS: 495,
		ShedRate:      0.01,
		Classes: map[string]*loadgen.ClassReport{
			"hit": {Count: 990, P50: 30 * time.Microsecond, P99: 50 * time.Microsecond},
		},
	}
	s := ScenarioFromReport("steady", rep)
	if s.Name != "steady" || s.Sessions != 100 || s.Completed != 990 {
		t.Fatalf("identity fields wrong: %+v", s)
	}
	c, ok := s.Classes["hit"]
	if !ok {
		t.Fatal("hit class missing")
	}
	if c.P50Ms != 0.03 || c.P99Ms != 0.05 {
		t.Fatalf("ns→ms conversion wrong: %+v", c)
	}
}

// TestCompareBench: the alloc-suite gate catches alloc regressions and
// vanished kernels, tolerates exactly the configured slack, and ignores
// timing entirely.
func TestCompareBench(t *testing.T) {
	base := BenchRecord{Kind: "BENCH", Results: []Result{
		{Name: "imaging/Decode", NsPerOp: 100, AllocsPerOp: 43},
		{Name: "wire/Write", NsPerOp: 50, AllocsPerOp: 0},
	}}
	if regs := CompareBench(base, base, 0); len(regs) != 0 {
		t.Fatalf("identical records failed the gate: %v", regs)
	}

	slower := BenchRecord{Kind: "BENCH", Results: []Result{
		{Name: "imaging/Decode", NsPerOp: 100000, AllocsPerOp: 43},
		{Name: "wire/Write", NsPerOp: 50000, AllocsPerOp: 0},
	}}
	if regs := CompareBench(base, slower, 0); len(regs) != 0 {
		t.Fatalf("timing-only drift failed the alloc gate: %v", regs)
	}

	leaky := BenchRecord{Kind: "BENCH", Results: []Result{
		{Name: "imaging/Decode", NsPerOp: 100, AllocsPerOp: 45},
		{Name: "wire/Write", NsPerOp: 50, AllocsPerOp: 0},
	}}
	if regs := CompareBench(base, leaky, 0); len(regs) != 1 {
		t.Fatalf("2 extra allocs/op not caught: %v", regs)
	}
	if regs := CompareBench(base, leaky, 2); len(regs) != 0 {
		t.Fatalf("allocSlack 2 did not absorb 2 extra allocs/op: %v", regs)
	}
	if regs := CompareBench(base, leaky, 1); len(regs) != 1 {
		t.Fatalf("allocSlack 1 absorbed 2 extra allocs/op: %v", regs)
	}

	gone := BenchRecord{Kind: "BENCH", Results: base.Results[:1]}
	if regs := CompareBench(base, gone, 0); len(regs) != 1 {
		t.Fatalf("vanished kernel not caught: %v", regs)
	}

	grown := BenchRecord{Kind: "BENCH", Results: append([]Result{
		{Name: "new/Kernel", NsPerOp: 10, AllocsPerOp: 99},
	}, base.Results...)}
	if regs := CompareBench(base, grown, 0); len(regs) != 0 {
		t.Fatalf("new kernel failed the gate: %v", regs)
	}
}

// TestIsBenchSuite: the gate's shape detector tells alloc-suite records from
// every other record kind this repo commits.
func TestIsBenchSuite(t *testing.T) {
	suite, err := os.ReadFile("../../BENCH_alloc.json")
	if err != nil {
		t.Fatal(err)
	}
	if !IsBenchSuite(suite) {
		t.Fatal("BENCH_alloc.json not detected as an alloc-suite record")
	}
	for _, f := range []string{"../../BENCH_pr5.json", "../../BENCH_pr7.json", "../../BENCH_pr8.json", "../../BENCH_pr9.json"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if IsBenchSuite(data) {
			t.Fatalf("%s misdetected as an alloc-suite record", f)
		}
	}
	if IsBenchSuite([]byte("not json")) {
		t.Fatal("garbage detected as an alloc-suite record")
	}
}
