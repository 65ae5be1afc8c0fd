package engine

import (
	"reflect"
	"testing"

	"repro/internal/policy"
)

// testLadder is a 4-scan byte/quality ladder of the shape sophon-bench
// -fidelity calibrates from the live codec.
func testLadder() policy.FidelityModel {
	return policy.FidelityModel{
		Levels:   4,
		ByteFrac: []float64{0.20, 0.42, 0.68, 1},
		Quality:  []float64{0.86, 0.94, 0.98, 1},
	}
}

// fidelityPlan marks every sample raw with drop scans withheld.
func fidelityPlan(t testing.TB, n, drop int) *policy.Plan {
	t.Helper()
	p, err := policy.NewUniformPlan("Prog", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Fidelity = make([]uint8, n)
	for i := range p.Fidelity {
		p.Fidelity[i] = uint8(drop)
	}
	return p
}

// A fidelity-carrying plan simulated without a ladder must be byte-identical
// to the discrete plan — the dimension is invisible until priced — and with
// the ladder the traffic must match policy.TrafficWith exactly.
func TestFidelityByteAccounting(t *testing.T) {
	tr := openImages(t, 400)
	fm := testLadder()
	plan := fidelityPlan(t, tr.N(), 2)

	off, err := Run(Config{Trace: tr, Plan: plan, Env: env(0)})
	if err != nil {
		t.Fatal(err)
	}
	discrete, err := Run(Config{Trace: tr, Plan: noOffPlan(t, tr), Env: env(0)})
	if err != nil {
		t.Fatal(err)
	}
	if off.TrafficBytes != discrete.TrafficBytes {
		t.Fatalf("un-priced fidelity changed traffic: %d vs %d", off.TrafficBytes, discrete.TrafficBytes)
	}
	if off.SamplesReduced != 0 || off.FidelityBytesSaved != 0 || off.MeanQuality != 1 {
		t.Fatalf("un-priced run reported fidelity effects: %+v", off)
	}

	on, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), Fidelity: &fm})
	if err != nil {
		t.Fatal(err)
	}
	wantPayload, err := plan.TrafficWith(tr, fm)
	if err != nil {
		t.Fatal(err)
	}
	want := wantPayload + int64(tr.N()*DefaultRequestOverhead)
	if on.TrafficBytes != want {
		t.Fatalf("priced traffic %d, want %d (policy.TrafficWith)", on.TrafficBytes, want)
	}
	if on.TrafficBytes >= discrete.TrafficBytes {
		t.Fatal("withholding scans did not reduce traffic")
	}
	if on.SamplesReduced != tr.N() {
		t.Fatalf("SamplesReduced %d, want %d", on.SamplesReduced, tr.N())
	}
	if on.FidelityBytesSaved != discrete.TrafficBytes-on.TrafficBytes {
		t.Fatalf("FidelityBytesSaved %d, traffic delta %d", on.FidelityBytesSaved, discrete.TrafficBytes-on.TrafficBytes)
	}
	if q := plan.MeanQuality(fm); on.MeanQuality != q {
		t.Fatalf("MeanQuality %v, want %v", on.MeanQuality, q)
	}
	// Less traffic can only help the I/O-bound epoch.
	if on.EpochTime > discrete.EpochTime {
		t.Fatalf("reduced fidelity slowed the epoch: %v > %v", on.EpochTime, discrete.EpochTime)
	}
}

func TestFidelityDeterministicUnderShuffleAndLookahead(t *testing.T) {
	tr := openImages(t, 500)
	fm := testLadder()
	plan := fidelityPlan(t, tr.N(), 1)
	cfg := Config{
		Trace: tr, Plan: plan, Env: env(4), Fidelity: &fm,
		ShuffleSeed: 7, Shards: 2, Lookahead: 8,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fidelity config produced %+v then %+v", a, b)
	}
	if a.SamplesReduced != tr.N() {
		t.Fatalf("SamplesReduced %d under shuffle", a.SamplesReduced)
	}
}

func TestFidelityRejectsBadLadder(t *testing.T) {
	tr := openImages(t, 20)
	bad := policy.FidelityModel{Levels: 2, ByteFrac: []float64{0.9, 0.5}, Quality: []float64{1, 1}}
	if _, err := Run(Config{Trace: tr, Plan: noOffPlan(t, tr), Env: env(0), Fidelity: &bad}); err == nil {
		t.Fatal("accepted non-monotone ladder")
	}
}
