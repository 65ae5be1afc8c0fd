package engine

import (
	"errors"
	"testing"
	"time"
)

func TestLookaheadValidation(t *testing.T) {
	tr := openImages(t, 50)
	plan := noOffPlan(t, tr)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative depth", Config{Trace: tr, Plan: plan, Env: env(0), Lookahead: -1}},
		{"depth+window", Config{Trace: tr, Plan: plan, Env: env(0), Lookahead: 4, PrefetchWindow: 64}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	bad := Config{Trace: tr, Plan: plan, Env: env(0), Lookahead: 2, PrefetchWindow: 8}
	if _, err := Run(bad); !errors.Is(err, errLookaheadConfig) {
		t.Fatalf("conflict error = %v, want ErrLookaheadConfig", err)
	}
}

// TestLookaheadTrafficInvariant: the clairvoyant loader moves exactly the
// same bytes as the reactive one — it reorders fetches, it never adds any.
func TestLookaheadTrafficInvariant(t *testing.T) {
	tr := openImages(t, 800)
	plan := noOffPlan(t, tr)
	base := Config{Trace: tr, Plan: plan, Env: env(0), Shards: 4, ShuffleSeed: 9, BatchSize: 64}
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	la := base
	la.Lookahead = 16
	r2, err := Run(la)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TrafficBytes != r1.TrafficBytes {
		t.Fatalf("lookahead traffic %d != reactive %d", r2.TrafficBytes, r1.TrafficBytes)
	}
	if r2.LinkBusy != r1.LinkBusy {
		t.Fatalf("lookahead link busy %v != reactive %v", r2.LinkBusy, r1.LinkBusy)
	}
	if r2.Batches != r1.Batches || r2.SamplesOffloaded != r1.SamplesOffloaded {
		t.Fatalf("lookahead batches/offload %d/%d != reactive %d/%d",
			r2.Batches, r2.SamplesOffloaded, r1.Batches, r1.SamplesOffloaded)
	}
}

// TestLookaheadDrivesLinkIdleDown is the PR's headline claim on the DES: for
// an I/O-bound sharded epoch, reactive windowed fetching leaves shard links
// idle (the global window stalls on the slowest shard) while the clairvoyant
// scheduler keeps every link saturated and finishes the epoch sooner.
func TestLookaheadDrivesLinkIdleDown(t *testing.T) {
	tr := openImages(t, 4000)
	plan := noOffPlan(t, tr)
	e := env(0)
	base := Config{Trace: tr, Plan: plan, Env: e, Shards: 4, ShuffleSeed: 7, BatchSize: 64, RTT: 200 * time.Microsecond}
	reactive, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	la := base
	la.Lookahead = 16
	clair, err := Run(la)
	if err != nil {
		t.Fatal(err)
	}
	if len(clair.PerLinkIdle) != 4 || len(reactive.PerLinkIdle) != 4 {
		t.Fatalf("per-link idle arity %d/%d", len(clair.PerLinkIdle), len(reactive.PerLinkIdle))
	}
	if clair.LinkIdleFrac >= 0.05 {
		t.Fatalf("clairvoyant link idle %.2f%%, want < 5%%", 100*clair.LinkIdleFrac)
	}
	if clair.LinkIdleFrac >= reactive.LinkIdleFrac {
		t.Fatalf("clairvoyant idle %.2f%% not below reactive %.2f%%",
			100*clair.LinkIdleFrac, 100*reactive.LinkIdleFrac)
	}
	if clair.EpochTime > reactive.EpochTime {
		t.Fatalf("clairvoyant epoch %v slower than reactive %v", clair.EpochTime, reactive.EpochTime)
	}
}
