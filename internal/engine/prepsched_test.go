package engine

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
)

// skewTrace makes heavyFrac of the samples costRatio× more expensive in
// every preprocessing op — the skewed service-time mix the variance-aware
// models are about. The heavy set is chosen by a seeded PCG so the mix is
// spread across stream positions.
func skewTrace(t testing.TB, n int, heavyFrac float64, costRatio int, seed uint64) *dataset.Trace {
	t.Helper()
	tr := openImages(t, n)
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	heavy := int(float64(n) * heavyFrac)
	for _, i := range rng.Perm(n)[:heavy] {
		for op := range tr.Records[i].OpTimes {
			tr.Records[i].OpTimes[op] *= time.Duration(costRatio)
		}
	}
	return tr
}

func TestPrepSchedValidation(t *testing.T) {
	tr := openImages(t, 40)
	plan := noOffPlan(t, tr)
	base := Config{Trace: tr, Plan: plan, Env: env(0)}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"unknown model", func(c *Config) { c.PrepSched = PrepSchedFIFO + 1 }},
		{"negative model", func(c *Config) { c.PrepSched = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(cfg); !errors.Is(err, errPrepSchedConfig) {
			t.Errorf("%s: err = %v, want ErrPrepSchedConfig", tc.name, err)
		}
	}
	// A negative worker count is a range error, not an unknown model.
	cfg := base
	cfg.PrepWorkers = -1
	if _, err := Run(cfg); err == nil || errors.Is(err, errPrepSchedConfig) {
		t.Errorf("negative workers: err = %v", err)
	}
}

// TestPrepSchedStealBeatsFIFO is the model-level version of the BENCH_pr9
// claim: under a 95/5 light/heavy mix at 20× cost ratio, per-worker FIFO
// queues stall behind the heavy samples while work-stealing keeps every
// worker busy — steal must win on epoch time and on stall fraction, without
// touching traffic.
func TestPrepSchedStealBeatsFIFO(t *testing.T) {
	const n = 1000
	tr := skewTrace(t, n, 0.05, 20, 42)
	e := env(0)
	e.Bandwidth = e.Bandwidth * 1000 // compute-bound: the link never binds
	e.ComputeCores = 8
	base := Config{
		Trace:       tr,
		Plan:        noOffPlan(t, tr),
		Env:         e,
		BatchSize:   64,
		ShuffleSeed: 42,
		Lookahead:   8,
	}

	fifoCfg := base
	fifoCfg.PrepSched = PrepSchedFIFO
	fifo, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	stealCfg := base
	stealCfg.PrepSched = PrepSchedSteal
	steal, err := Run(stealCfg)
	if err != nil {
		t.Fatal(err)
	}

	if fifo.TrafficBytes != steal.TrafficBytes {
		t.Fatalf("scheduling changed traffic: %d vs %d", fifo.TrafficBytes, steal.TrafficBytes)
	}
	if fifo.Steals != 0 {
		t.Fatalf("FIFO stole %d samples", fifo.Steals)
	}
	if steal.Steals == 0 {
		t.Fatal("steal model never stole")
	}
	speedup := fifo.EpochTime.Seconds() / steal.EpochTime.Seconds()
	if speedup < 1.05 {
		t.Fatalf("steal speedup %.3fx over FIFO, want comfortably > 1", speedup)
	}
	if steal.WorkerStallFrac >= fifo.WorkerStallFrac {
		t.Fatalf("steal stall frac %.3f not below FIFO %.3f", steal.WorkerStallFrac, fifo.WorkerStallFrac)
	}
	if len(fifo.PerWorkerIdle) != 8 || len(steal.PerWorkerIdle) != 8 {
		t.Fatalf("per-worker idle lengths %d/%d, want 8", len(fifo.PerWorkerIdle), len(steal.PerWorkerIdle))
	}
}

// TestPrepSchedDeterministic: same seed, same result — the DES model has no
// hidden randomness — and the default model is the stealing pool.
func TestPrepSchedDeterministic(t *testing.T) {
	tr := skewTrace(t, 300, 0.1, 10, 7)
	cfg := Config{
		Trace: tr, Plan: noOffPlan(t, tr), Env: env(0),
		BatchSize: 32, ShuffleSeed: 9, Lookahead: 4, PrepWorkers: 6,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PrepSched = PrepSchedSteal
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("default config diverged from an explicit steal run: %+v vs %+v", a, b)
	}
	if a.Steals == 0 {
		t.Fatal("default model never stole")
	}
	if len(a.PerWorkerIdle) != 6 {
		t.Fatalf("PrepWorkers override ignored: %d workers", len(a.PerWorkerIdle))
	}
}
