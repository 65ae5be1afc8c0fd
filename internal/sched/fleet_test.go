package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

func fleetConfig() FleetConfig {
	return FleetConfig{
		Cores:     8,
		Bandwidth: netsim.Mbps(1000),
		Clock:     simclock.NewVirtual(time.Unix(0, 0)),
	}
}

func fleetTenant(t testing.TB, name string, seed uint64) Tenant {
	t.Helper()
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(1000), seed)
	if err != nil {
		t.Fatal(err)
	}
	return Tenant{Name: name, Trace: tr, Env: jobEnv()}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(FleetConfig{Cores: -1, Bandwidth: 1}); err == nil {
		t.Fatal("accepted negative cores")
	}
	if _, err := NewCoordinator(FleetConfig{Cores: 1}); err == nil {
		t.Fatal("accepted zero bandwidth")
	}
	if _, err := NewCoordinator(FleetConfig{Cores: 1, Bandwidth: 1, Shards: -2}); err == nil {
		t.Fatal("accepted negative shards")
	}
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Admit(Tenant{}); err == nil {
		t.Fatal("admitted unnamed tenant")
	}
	if err := c.Admit(Tenant{Name: "t", Trace: &dataset.Trace{}, Env: jobEnv()}); err == nil {
		t.Fatal("admitted empty trace")
	}
	// A failed admission must not leak into the fleet.
	if g := c.Generation(); g != 0 {
		t.Fatalf("failed admissions bumped the generation to %d", g)
	}
	if len(c.Grants()) != 0 {
		t.Fatal("failed admissions left tenants behind")
	}
}

func TestCoordinatorAdmitReplans(t *testing.T) {
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Admit(fleetTenant(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	// Alone, tenant a gets the whole link and the whole core budget it can use.
	solo := c.Grants()["a"]
	if solo.Bandwidth != netsim.Mbps(1000) || solo.Plan == nil {
		t.Fatalf("solo tenant granted %.0f B/s of the link, plan %v", solo.Bandwidth, solo.Plan)
	}

	if err := c.Admit(fleetTenant(t, "b", 2)); err != nil {
		t.Fatal(err)
	}
	// b's arrival replans a, before Admit returns, with a halved link share.
	grants := c.Grants()
	if got := grants["a"].Bandwidth; got != netsim.Mbps(500) {
		t.Fatalf("tenant a's share after b arrived: %.0f B/s", got)
	}
	if grants["a"].Plan == solo.Plan || grants["b"].Plan == nil {
		t.Fatal("b's admission did not replan both tenants")
	}

	if g := c.Generation(); g != 2 {
		t.Fatalf("generation %d after two admissions, want 2", g)
	}
	hist := c.History()
	if len(hist) != 2 {
		t.Fatalf("history has %d events, want 2", len(hist))
	}
	for i, want := range []string{"admit:a", "admit:b"} {
		if e := hist[i]; e.Generation != uint64(i+1) || e.Reason != want || e.Tenants != i+1 {
			t.Fatalf("event %d: %v, want generation %d %s", i, e, i+1, want)
		}
	}
}

func TestCoordinatorWeightedShares(t *testing.T) {
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	heavy := fleetTenant(t, "heavy", 3)
	heavy.Weight = 3
	if err := c.Admit(heavy); err != nil {
		t.Fatal(err)
	}
	if err := c.Admit(fleetTenant(t, "light", 4)); err != nil {
		t.Fatal(err)
	}
	grants := c.Grants()
	wantHeavy := netsim.Mbps(1000) * 3 / 4
	if got := grants["heavy"].Bandwidth; got != wantHeavy {
		t.Fatalf("weight-3 tenant granted %.0f B/s, want %.0f", got, wantHeavy)
	}
	if got := grants["light"].Bandwidth; got != netsim.Mbps(1000)/4 {
		t.Fatalf("weight-1 tenant granted %.0f B/s, want %.0f", got, netsim.Mbps(1000)/4)
	}
}

// A tenant the water-filling loop starves of cores must still hold a valid
// transfer-only plan — admission never drops a tenant.
func TestCoordinatorZeroCoreTenantStillPlanned(t *testing.T) {
	cfg := fleetConfig()
	cfg.Cores = 1
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"t0", "t1", "t2"} {
		if err := c.Admit(fleetTenant(t, name, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	starved := 0
	for name, g := range c.Grants() {
		if g.Plan == nil || g.Plan.N() == 0 {
			t.Fatalf("tenant %s has no plan", name)
		}
		if g.Cores == 0 {
			starved++
			if g.Plan.OffloadedCount() != 0 {
				t.Fatalf("tenant %s offloads with 0 cores", name)
			}
		}
		if g.Predicted <= 0 {
			t.Fatalf("tenant %s has no predicted epoch", name)
		}
	}
	if starved != 2 {
		t.Fatalf("%d tenants starved under a 1-core budget, want 2", starved)
	}
}

// The water-filling total across the fleet never exceeds the shared budget,
// and the fleet objective improves over granting nobody cores.
func TestCoordinatorRespectsCoreBudget(t *testing.T) {
	cfg := fleetConfig()
	cfg.Cores = 4
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Admit(fleetTenant(t, string(rune('a'+i)), uint64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	spent := 0
	var total time.Duration
	for _, g := range c.Grants() {
		spent += g.Cores
		total += g.Predicted
	}
	if spent > 4 {
		t.Fatalf("fleet spent %d of 4 shared cores", spent)
	}
	if spent == 0 {
		t.Fatal("network-bound fleet granted no cores at all")
	}

	// Compare with a zero-core fleet over the same tenants.
	zeroCfg := fleetConfig()
	zeroCfg.Cores = 0
	z, err := NewCoordinator(zeroCfg)
	if err != nil {
		t.Fatal(err)
	}
	var zeroTotal time.Duration
	for i := 0; i < 3; i++ {
		if err := z.Admit(fleetTenant(t, string(rune('a'+i)), uint64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range z.Grants() {
		zeroTotal += g.Predicted
	}
	if total >= zeroTotal {
		t.Fatalf("shared cores did not improve the fleet: %v vs %v", total, zeroTotal)
	}
}

// TestCoordinatorGrantsDuringAdmit: Grants is read while another goroutine
// admits tenants. Every read is a whole generation: n tenants, each with a
// plan and an equal share of the link. Run it under -race.
func TestCoordinatorGrantsDuringAdmit(t *testing.T) {
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]Tenant, 3)
	for i := range tenants {
		tenants[i] = fleetTenant(t, fmt.Sprint("t", i), uint64(50+i))
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				grants := c.Grants()
				for name, g := range grants {
					if g.Plan == nil || g.Bandwidth != netsim.Mbps(1000)/float64(len(grants)) {
						errs <- fmt.Errorf("%d tenants: %s granted %.0f B/s, plan %v", len(grants), name, g.Bandwidth, g.Plan)
						return
					}
				}
			}
		}()
	}
	for _, tn := range tenants {
		if err := c.Admit(tn); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g, n := c.Generation(), len(c.Grants()); g != 3 || n != 3 {
		t.Fatalf("generation %d with %d tenants, want 3 and 3", g, n)
	}
}
