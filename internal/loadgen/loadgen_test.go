package loadgen

import (
	"encoding/json"
	"testing"
	"time"
)

// steadyConfig returns a moderately-loaded scenario: 2,400 sessions across
// two job profiles against a 4-shard tier, sized so the tier keeps up.
func steadyConfig() Config {
	return Config{
		Seed:     2024,
		Duration: 2 * time.Second,
		Shards:   4,
		// 8 cores per shard, 2 Gbps per shard link.
		CoresPerShard:   8,
		LinkBytesPerSec: 250e6,
		// Offered link load ≈ 640 MB/s against 4×250 MB/s capacity (~64%
		// utilization); storage cores run ~25% busy.
		Jobs: []JobSpec{
			{
				Name: "openimages", Weight: 2, Sessions: 1600, Rate: 3,
				Arrival: Poisson,
				Mix:     [3]float64{0.4, 0.45, 0.15},
				// ~90 KB artifacts, ~500 KB raw, 3ms prefix CPU.
				OffloadedBytes: 90 << 10, RawBytes: 500 << 10,
				OffloadCPU: 3 * time.Millisecond,
			},
			{
				Name: "imagenet", Weight: 1, Sessions: 800, Rate: 2,
				Arrival: Bursty, Burst: 8,
				Mix:            [3]float64{0.3, 0.5, 0.2},
				OffloadedBytes: 60 << 10, RawBytes: 110 << 10,
				OffloadCPU: 2 * time.Millisecond,
			},
		},
	}
}

func TestRunSteadySLOs(t *testing.T) {
	rep, err := Run(steadyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions < 2000 {
		t.Fatalf("Sessions = %d, want >= 2000", rep.Sessions)
	}
	if rep.Offered == 0 || rep.Completed == 0 {
		t.Fatalf("no traffic: offered=%d completed=%d", rep.Offered, rep.Completed)
	}
	// Steady state: nearly everything completes, nothing is shed.
	if rep.ShedRate > 0.01 {
		t.Fatalf("steady scenario shed %.2f%% of load", rep.ShedRate*100)
	}
	if ratio := float64(rep.Completed) / float64(rep.Offered); ratio < 0.99 {
		t.Fatalf("completed/offered = %.3f, want >= 0.99", ratio)
	}
	for _, class := range []string{"hit", "offloaded", "raw"} {
		cr := rep.Classes[class]
		if cr == nil || cr.Count == 0 {
			t.Fatalf("class %q missing from report: %+v", class, rep.Classes)
		}
		if cr.P50 <= 0 || cr.P99 < cr.P50 || cr.P999 < cr.P99 || cr.Max < cr.P999 {
			t.Fatalf("class %q quantiles not monotone: %+v", class, cr)
		}
	}
	// Cache hits never touch the tier; they must be orders of magnitude
	// faster than raw fetches.
	if rep.Classes["hit"].P99 >= rep.Classes["raw"].P50 {
		t.Fatalf("hit p99 %v >= raw p50 %v", rep.Classes["hit"].P99, rep.Classes["raw"].P50)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(steadyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(steadyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different reports:\n%s\n%s", ja, jb)
	}
	cfg := steadyConfig()
	cfg.Seed++
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical reports")
	}
}

// overloadConfig drives ~5x the steady rate at a much weaker tier.
func overloadConfig(admission AdmissionSpec) Config {
	cfg := steadyConfig()
	cfg.Shards = 2
	cfg.CoresPerShard = 2
	cfg.LinkBytesPerSec = 60e6
	for i := range cfg.Jobs {
		cfg.Jobs[i].Rate *= 5
	}
	cfg.Admission = admission
	return cfg
}

// TestOverloadBoundedP99 is the acceptance property: with admission
// control on, an overloaded tier sheds load and keeps p99 bounded; with
// a budget nothing reaches the open-loop backlog grows without bound and p99
// explodes toward the simulation horizon.
func TestOverloadBoundedP99(t *testing.T) {
	shed, err := Run(overloadConfig(AdmissionSpec{
		MaxInFlightBytes:  4 << 20,
		MaxQueuePerTenant: 16,
	}))
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := Run(overloadConfig(AdmissionSpec{MaxInFlightBytes: 1 << 50}))
	if err != nil {
		t.Fatal(err)
	}

	if shed.Shed == 0 {
		t.Fatal("overloaded run with admission control shed nothing")
	}
	if shed.ShedRate < 0.05 {
		t.Fatalf("shed rate %.3f too low for a 5x overload", shed.ShedRate)
	}

	for _, class := range []string{"offloaded", "raw"} {
		bounded := shed.Classes[class].P99
		collapsed := unbounded.Classes[class].P99
		// The admission-controlled tail must stay far below the
		// uncontrolled one (which queues toward the full sim horizon).
		if bounded*10 > collapsed {
			t.Errorf("class %q: admission p99 %v not ≪ unbounded p99 %v", class, bounded, collapsed)
		}
	}
	// Bounded queues: the depth high-water can never exceed
	// jobs × shards × per-tenant cap.
	const ceiling = 2 * 2 * 16
	if shed.MaxQueueDepth > ceiling {
		t.Fatalf("queue depth %d exceeded ceiling %d", shed.MaxQueueDepth, ceiling)
	}
}

// TestWeightedTenantShedding: under overload, the heavier tenant should
// complete at least its fair share relative to the light one.
func TestWeightedTenantShedding(t *testing.T) {
	cfg := Config{
		Seed:            7,
		Duration:        time.Second,
		Shards:          1,
		CoresPerShard:   1,
		LinkBytesPerSec: 20e6,
		Admission:       AdmissionSpec{MaxInFlightBytes: 4 << 20, MaxQueuePerTenant: 512},
		Jobs: []JobSpec{
			{Name: "heavy", Weight: 4, Sessions: 200, Rate: 50, Mix: [3]float64{0, 0, 1}, RawBytes: 100 << 10},
			{Name: "light", Weight: 1, Sessions: 200, Rate: 50, Mix: [3]float64{0, 0, 1}, RawBytes: 100 << 10},
		},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("expected shedding under overload")
	}
	// Both jobs offer the same load; the weighted queues should let the
	// weight-4 tenant through at a higher rate than weight-1. We can't
	// split completions by job from the public report, so assert the
	// aggregate stays sane and shedding engaged; the wfq package's own
	// tests pin the share property.
	if rep.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

// TestOversizeRequestsRunSerially: a request larger than the whole byte
// budget is admitted once the shard is idle, as the live controller's
// Acquire documents, so a run made only of such requests completes every one
// of them, one at a time — it used to admit none and complete nothing.
func TestOversizeRequestsRunSerially(t *testing.T) {
	rep, err := Run(Config{
		Seed:            11,
		Duration:        time.Second,
		CoresPerShard:   8,
		LinkBytesPerSec: 100e6,
		Admission:       AdmissionSpec{MaxInFlightBytes: 64 << 10},
		Jobs: []JobSpec{{
			Name: "oversize", Sessions: 4, Rate: 50, Mix: [3]float64{0, 1, 1},
			OffloadedBytes: 100 << 10, RawBytes: 100 << 10, OffloadCPU: 2 * time.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered < 100 || rep.Completed != rep.Offered || rep.Shed != 0 {
		t.Fatalf("offered %d, completed %d, shed %d; want every offered request completed", rep.Offered, rep.Completed, rep.Shed)
	}
	// Eight idle cores, yet arrivals waited: nothing ran beside an oversize
	// request.
	if rep.MaxQueueDepth == 0 {
		t.Fatal("no request ever waited for the oversize one in flight")
	}
}

func TestRunBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
	if _, err := Run(Config{Duration: time.Second, LinkBytesPerSec: 1e6}); err == nil {
		t.Fatal("no sessions should fail")
	}
	if _, err := Run(Config{
		Duration: time.Second, LinkBytesPerSec: 1e6,
		Jobs: []JobSpec{{Sessions: 1, Rate: -1}},
	}); err == nil {
		t.Fatal("negative rate should fail")
	}
}

func TestArrivalRates(t *testing.T) {
	// Mean inter-arrival of both processes must track 1/rate.
	for _, kind := range []ArrivalKind{Poisson, Bursty} {
		proc := newArrivalProc(1, 2, kind, 100, 8)
		var sum time.Duration
		const n = 20000
		for i := 0; i < n; i++ {
			sum += proc.next()
		}
		mean := sum.Seconds() / n
		if mean < 0.008 || mean > 0.012 {
			t.Errorf("%v: mean gap %.5fs, want ~0.010s", kind, mean)
		}
	}
}
