// Multi-tenant fleet: three training jobs share one storage tier through
// the fleet coordinator. Two tenants train on the SAME dataset and share
// offloaded artifacts through the cross-job cache; a third tenant arrives
// mid-run and the whole fleet replans at a new generation, shrinking every
// tenant's grant. The example trains real epochs over the wire protocol,
// each under the tenant's current grant, and prints the cache's per-tenant
// accounting.
package main

import (
	"fmt"
	"log"

	sophon "repro"
)

const (
	samples   = 400
	shareKey  = 42 // dataset share key = every group tenant's storage job ID
	linkMbps  = 300
	fleetCPUs = 6
)

func main() {
	// One storage tier, bandwidth-shaped, with a shared preprocessing-core
	// budget the coordinator will divide among tenants.
	cluster, err := sophon.StartCluster(sophon.ClusterConfig{
		DatasetName:   "fleet-demo",
		NumSamples:    samples,
		Seed:          7,
		MinDim:        64,
		MaxDim:        200,
		CropSize:      64,
		StorageCores:  fleetCPUs,
		BandwidthMbps: linkMbps,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// The cross-job artifact cache every tenant of the share group stacks
	// over its storage session.
	shared, err := sophon.NewSharedArtifactCache(256 << 20)
	if err != nil {
		log.Fatal(err)
	}
	newTrainer := func(name string, jobID uint64, sharedCache *sophon.SharedArtifactCache) *sophon.Trainer {
		t, err := cluster.NewTrainer(sophon.TrainerOptions{
			Workers:     4,
			BatchSize:   32,
			JobID:       jobID,
			SharedCache: sharedCache,
			TenantName:  name,
		})
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	// Coordinated prep: both group tenants dial with the GROUP's share key.
	trainerA := newTrainer("vision-team-a", shareKey, shared)
	trainerB := newTrainer("vision-team-b", shareKey, shared)
	defer trainerA.Close()
	defer trainerB.Close()

	// Every tenant's own resources: its loader, GPU and the tier's slowdown.
	// The fleet coordinator owns the tier's budgets — the cores the tier
	// stated and the link — and grants them weighted-fair to the tenants.
	env := trainerA.Env(sophon.Mbps(linkMbps))
	coord, err := sophon.NewFleetCoordinator(sophon.FleetCoordinatorConfig{
		Cores:     env.StorageCores,
		Bandwidth: env.Bandwidth,
	})
	if err != nil {
		log.Fatal(err)
	}
	trace := func(seed uint64) *sophon.Trace {
		tr, err := sophon.GenerateTrace(sophon.OpenImagesProfile(samples), seed)
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}

	// Admit the first two tenants: same dataset (share key 42), so their
	// offloaded artifacts are interchangeable.
	var admitted []string // admission order, the order grants print in
	admit := func(name string, tr *sophon.Trace) {
		if err := coord.Admit(sophon.FleetTenant{Name: name, Trace: tr, Env: env}); err != nil {
			log.Fatal(err)
		}
		admitted = append(admitted, name)
	}
	admit("vision-team-a", trace(1))
	admit("vision-team-b", trace(1))

	fmt.Printf("fleet generation %d: 2 tenants admitted\n", coord.Generation())
	printGrants(coord, admitted)

	// Epoch 1: tenant a trains first (cold cache), tenant b second — its
	// overlap with a is served from the shared cache at zero wire bytes.
	grants := coord.Grants()
	repA, err := trainerA.RunEpoch(1, grants["vision-team-a"].Plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	repB, err := trainerB.RunEpoch(1, grants["vision-team-b"].Plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nepoch 1 (plan generation %d):\n", coord.Generation())
	fmt.Printf("  %-15s %6.2fs  %8.1f MB fetched\n", "vision-team-a", repA.Duration.Seconds(), float64(repA.BytesFetched)/1e6)
	fmt.Printf("  %-15s %6.2fs  %8.1f MB fetched\n", "vision-team-b", repB.Duration.Seconds(), float64(repB.BytesFetched)/1e6)

	// A third tenant arrives mid-run. Admission replans the fleet: both
	// existing tenants hold tighter grants at a higher generation before
	// Admit returns.
	admit("imagenet-job", trace(3))
	history := coord.History()
	last := history[len(history)-1]
	fmt.Printf("\nmid-run arrival: %s → fleet generation %d (reason %q)\n",
		"imagenet-job", last.Generation, last.Reason)
	printGrants(coord, admitted)

	// Epoch 2 runs under the replanned generation. The share group's raw
	// artifacts are still warm from epoch 1; augmented cuts are re-fetched
	// once per epoch and shared again between a and b.
	grants = coord.Grants()
	repA2, err := trainerA.RunEpoch(2, grants["vision-team-a"].Plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	repB2, err := trainerB.RunEpoch(2, grants["vision-team-b"].Plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	// The newcomer is outside the share group: own job ID, no shared cache.
	trainerC := newTrainer("imagenet-job", 99, nil)
	defer trainerC.Close()
	repC, err := trainerC.RunEpoch(2, grants["imagenet-job"].Plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nepoch 2 (plan generation %d):\n", coord.Generation())
	fmt.Printf("  %-15s %6.2fs  %8.1f MB fetched\n", "vision-team-a", repA2.Duration.Seconds(), float64(repA2.BytesFetched)/1e6)
	fmt.Printf("  %-15s %6.2fs  %8.1f MB fetched\n", "vision-team-b", repB2.Duration.Seconds(), float64(repB2.BytesFetched)/1e6)
	fmt.Printf("  %-15s %6.2fs  %8.1f MB fetched\n", "imagenet-job", repC.Duration.Seconds(), float64(repC.BytesFetched)/1e6)

	snap := shared.Snapshot()
	fmt.Printf("\ncross-job artifact cache: %d items, %.1f MB resident, hit rate %.0f%%\n",
		snap.Items, float64(snap.Bytes)/1e6, 100*snap.HitRate())
	for _, name := range snap.TenantNames() {
		ts := snap.Tenants[name]
		fmt.Printf("  %-15s %4d hits, %4d misses, %6.1f MB saved off the wire\n",
			name, ts.Hits, ts.Misses, float64(ts.BytesSaved)/1e6)
	}
	if snap.Hits == 0 {
		log.Fatal("expected shared-cache hits between the share group's tenants")
	}

	fmt.Printf("\nfleet history:\n")
	for _, e := range coord.History() {
		fmt.Printf("  %s\n", e)
	}
}

// printGrants lists the named tenants' grants in the order given.
func printGrants(coord *sophon.FleetCoordinator, names []string) {
	grants := coord.Grants()
	for _, name := range names {
		g := grants[name]
		fmt.Printf("  %-15s %d cores, %5.1f Mbps, predicted %5.1fs\n",
			name, g.Cores, g.Bandwidth*8/1e6, g.Predicted.Seconds())
	}
}
