// Multi-tenant training on one storage tier. Tenants that train at once
// share the tier's link and storage cores, and the tier splits them evenly
// (internal/trainsim's TestConcurrentJobsSplitTheLinkEvenly), so each tenant
// plans from its own profile with link ÷ tenants and storage cores ÷
// tenants. Two tenants of one dataset form a share group: they dial with the
// group's share key and stack the cross-job artifact cache over their
// sessions, so an artifact one of them fetched serves the other at zero wire
// bytes. Both train at once; then a third tenant arrives, all three re-plan
// at ÷ 3 and train at once. Each live epoch prints beside the epoch its plan
// predicted.
//
// Run with:
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"
	"sync"

	sophon "repro"
)

const (
	samples  = 64
	shareKey = 42 // dataset share key = every group tenant's storage job ID
	linkMbps = 100
)

// tenant is one training job on the tier and the trace it profiled.
type tenant struct {
	name    string
	trainer *sophon.Trainer
	trace   *sophon.Trace
}

func main() {
	// One storage tier: 4 preprocessing cores behind a 100 Mbps shaped link.
	cluster, err := sophon.StartCluster(sophon.ClusterConfig{
		DatasetName:   "multitenant-demo",
		NumSamples:    samples,
		Seed:          7,
		MinDim:        320,
		MaxDim:        640,
		StorageCores:  4,
		BandwidthMbps: linkMbps,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// The cross-job artifact cache the share group stacks over its sessions.
	shared, err := sophon.NewSharedArtifactCache(256 << 20)
	if err != nil {
		log.Fatal(err)
	}
	// arrive dials a tenant and profiles it: stage-1 probes, then epoch 1
	// without offloading, measured into the tenant's own trace.
	arrive := func(name string, jobID uint64, sharedCache *sophon.SharedArtifactCache) *tenant {
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
		trace, _, rep, err := t.Profile(2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s profiled: epoch 1 %5.2fs, %6.1f MB fetched\n",
			name, rep.Duration.Seconds(), float64(rep.BytesFetched)/1e6)
		return &tenant{name: name, trainer: t, trace: trace}
	}

	// The share group profiles one tenant after the other: the second's
	// raw fetches hit the whole objects the first one cached.
	a := arrive("vision-team-a", shareKey, shared)
	defer a.trainer.Close()
	b := arrive("vision-team-b", shareKey, shared)
	defer b.trainer.Close()
	trainConcurrently(2, []*tenant{a, b})

	// A third tenant arrives, outside the share group: its own job ID and
	// no shared cache. Every tenant re-plans at ÷ 3 and all three train.
	c := arrive("team-c", 99, nil)
	defer c.trainer.Close()
	trainConcurrently(3, []*tenant{a, b, c})

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
}

// trainConcurrently plans each tenant from its own trace on its even share
// of the tier, trains one epoch of every tenant at once, and prints each
// live epoch beside the epoch its plan predicted.
func trainConcurrently(epoch uint64, tenants []*tenant) {
	k := len(tenants)
	decisions := make([]sophon.Decision, k)
	var env sophon.Env
	for i, t := range tenants {
		env = t.trainer.Env(sophon.Mbps(linkMbps) / float64(k))
		env.StorageCores /= k
		d, err := sophon.Decide(t.trace, env)
		if err != nil {
			log.Fatal(err)
		}
		decisions[i] = d
	}
	reports := make([]sophon.EpochReport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = t.trainer.RunEpoch(epoch, decisions[i].Plan, nil)
		}()
	}
	wg.Wait()

	fmt.Printf("\nepoch %d, %d tenants at once, each planned on %.1f Mbps and %d storage core(s):\n",
		epoch, k, env.Bandwidth*8/1e6, env.StorageCores)
	for i, t := range tenants {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		planned := decisions[i].Planned.Predicted()
		fmt.Printf("  %-15s offloads %3d of %d, live %5.2fs, planned %5.2fs (live ÷ planned %.2f), %6.1f MB fetched\n",
			t.name, decisions[i].Plan.OffloadedCount(), t.trace.N(), reports[i].Duration.Seconds(),
			planned.Seconds(), reports[i].Duration.Seconds()/planned.Seconds(), float64(reports[i].BytesFetched)/1e6)
	}
}
