package sched

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/policy"
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
	if _, err := c.Admit(Tenant{}); err == nil {
		t.Fatal("admitted unnamed tenant")
	}
	if _, err := c.Admit(Tenant{Name: "t", Trace: &dataset.Trace{}, Env: jobEnv()}); err == nil {
		t.Fatal("admitted empty trace")
	}
	if err := c.Depart("ghost"); err == nil {
		t.Fatal("departed unknown tenant")
	}
	if _, err := c.ObserveBandwidth(-5); err == nil {
		t.Fatal("accepted negative bandwidth measurement")
	}
	// A failed admission must not leak into the fleet.
	if g := c.Generation(); g != 0 {
		t.Fatalf("failed admissions bumped the generation to %d", g)
	}
	if len(c.Grants()) != 0 {
		t.Fatal("failed admissions left tenants behind")
	}
}

func TestCoordinatorAdmitDepartReplans(t *testing.T) {
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	provA, err := c.Admit(fleetTenant(t, "a", 1))
	if err != nil {
		t.Fatal(err)
	}
	snapA1 := provA.Current()
	if snapA1.Version != 1 || snapA1.Reason != "admit:a" {
		t.Fatalf("first snapshot: version %d reason %q", snapA1.Version, snapA1.Reason)
	}
	// Alone, tenant a gets the whole link and the whole core budget it can use.
	grants := c.Grants()
	if grants["a"].Bandwidth != netsim.Mbps(1000) {
		t.Fatalf("solo tenant granted %.0f B/s of the link", grants["a"].Bandwidth)
	}

	subA := provA.Subscribe()
	provB, err := c.Admit(fleetTenant(t, "b", 2))
	if err != nil {
		t.Fatal(err)
	}
	// b's arrival republishes a's plan at the next generation with a halved
	// link share.
	snapA2 := <-subA
	if snapA2.Version != 2 || snapA2.Reason != "admit:b" {
		t.Fatalf("replan snapshot: version %d reason %q", snapA2.Version, snapA2.Reason)
	}
	if got := snapA2.Env.Bandwidth; got != netsim.Mbps(500) {
		t.Fatalf("tenant a's share after b arrived: %.0f B/s", got)
	}
	if provB.Current().Version != 2 {
		t.Fatalf("tenant b admitted at version %d", provB.Current().Version)
	}

	// Departure widens the survivor's grant again.
	subA2 := provA.Subscribe()
	if err := c.Depart("b"); err != nil {
		t.Fatal(err)
	}
	snapA3 := <-subA2
	if snapA3.Version != 3 || snapA3.Reason != "depart:b" {
		t.Fatalf("post-departure snapshot: version %d reason %q", snapA3.Version, snapA3.Reason)
	}
	if got := snapA3.Env.Bandwidth; got != netsim.Mbps(1000) {
		t.Fatalf("tenant a's share after b departed: %.0f B/s", got)
	}
	// The departed tenant's feed froze at its last generation.
	if provB.Current().Version != 2 {
		t.Fatalf("departed tenant's feed moved to %d", provB.Current().Version)
	}

	hist := c.History()
	if len(hist) != 3 {
		t.Fatalf("history has %d events, want 3", len(hist))
	}
	for i, e := range hist {
		if e.Generation != uint64(i+1) {
			t.Fatalf("event %d at generation %d", i, e.Generation)
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
	if _, err := c.Admit(heavy); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(fleetTenant(t, "light", 4)); err != nil {
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
		if _, err := c.Admit(fleetTenant(t, name, uint64(10+i))); err != nil {
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
	status := c.Status()
	if status.CoresUsed != 1 {
		t.Fatalf("status reports %d cores used, want 1", status.CoresUsed)
	}
}

func TestCoordinatorBandwidthDrift(t *testing.T) {
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	prov, err := c.Admit(fleetTenant(t, "a", 20))
	if err != nil {
		t.Fatal(err)
	}
	// Within the 20% threshold: absorbed, no replan.
	replanned, err := c.ObserveBandwidth(netsim.Mbps(900))
	if err != nil {
		t.Fatal(err)
	}
	if replanned {
		t.Fatal("10% deviation triggered a replan")
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation moved to %d without a replan", g)
	}
	// Past the threshold: the fleet replans against the measurement.
	sub := prov.Subscribe()
	replanned, err = c.ObserveBandwidth(netsim.Mbps(400))
	if err != nil {
		t.Fatal(err)
	}
	if !replanned {
		t.Fatal("60% deviation absorbed silently")
	}
	snap := <-sub
	if snap.Reason != "bandwidth-drift" || snap.Version != 2 {
		t.Fatalf("drift snapshot: version %d reason %q", snap.Version, snap.Reason)
	}
	if snap.Env.Bandwidth != netsim.Mbps(400) {
		t.Fatalf("replanned at %.0f B/s, want measured capacity", snap.Env.Bandwidth)
	}
}

func TestCoordinatorStatusAndShareGroups(t *testing.T) {
	c, err := NewCoordinator(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := fleetTenant(t, "a", 30)
	a.Dataset = 42
	b := fleetTenant(t, "b", 31)
	b.Dataset = 42
	solo := fleetTenant(t, "solo", 32)
	for _, tn := range []Tenant{a, b, solo} {
		if _, err := c.Admit(tn); err != nil {
			t.Fatal(err)
		}
	}
	groups := c.ShareGroups()
	if len(groups) != 1 || len(groups[42]) != 2 {
		t.Fatalf("share groups %v, want {42: [a b]}", groups)
	}
	st := c.Status()
	if st.Generation != 3 || len(st.Tenants) != 3 {
		t.Fatalf("status: generation %d, %d tenants", st.Generation, len(st.Tenants))
	}
	// Rows come back in admission order with live plan versions.
	for i, want := range []string{"a", "b", "solo"} {
		row := st.Tenants[i]
		if row.Name != want {
			t.Fatalf("row %d is %q, want %q", i, row.Name, want)
		}
		if row.PlanVersion != st.Generation {
			t.Fatalf("tenant %s at plan version %d, fleet at %d", row.Name, row.PlanVersion, st.Generation)
		}
		if row.Samples != 1000 {
			t.Fatalf("tenant %s reports %d samples", row.Name, row.Samples)
		}
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
		if _, err := c.Admit(fleetTenant(t, string(rune('a'+i)), uint64(40+i))); err != nil {
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
		if _, err := z.Admit(fleetTenant(t, string(rune('a'+i)), uint64(40+i))); err != nil {
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

var _ policy.PlanProvider = (*policy.PlanFeed)(nil)
