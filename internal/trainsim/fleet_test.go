package trainsim

// Two live trainers of one share group run over TenantFetchers stacked on a
// single SharedArtifactCache: the second tenant's epoch draws a visible
// fraction of its samples from the first tenant's fetches, at zero wire
// bytes for the overlap, with identical training results.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/policy"
	"repro/internal/storage"
)

func TestFleetTenantsShareArtifacts(t *testing.T) {
	const shareKey = 91
	h := newHarness(t, 32, 2)
	shared, err := cache.NewShared(128 << 20)
	if err != nil {
		t.Fatal(err)
	}

	tenantConfig := func(name string) Config {
		return Config{
			DialClient: func() (storage.Fetcher, error) {
				conn, err := h.listener.Dial()
				if err != nil {
					return nil, err
				}
				// Coordinated prep: every tenant of the group authenticates
				// as the shared dataset key so augmentation seeds match.
				c, err := storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: shareKey})
				if err != nil {
					return nil, err
				}
				return cache.NewTenantFetcher(c, shared, name, shareKey)
			},
			Workers:   2,
			Pipeline:  h.pipe,
			GPU:       gpu.AlexNet,
			BatchSize: 8,
			JobID:     shareKey,
		}
	}

	plan, err := policy.NewUniformPlan("half-off", h.n, 2)
	if err != nil {
		t.Fatal(err)
	}

	first := newTrainer(t, tenantConfig("tenant-a"))
	repA, err := first.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Samples != h.n {
		t.Fatalf("tenant a trained %d of %d samples", repA.Samples, h.n)
	}

	second := newTrainer(t, tenantConfig("tenant-b"))
	repB, err := second.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Samples != h.n {
		t.Fatalf("tenant b trained %d of %d samples", repB.Samples, h.n)
	}

	// Tenant b's epoch covers the same (sample, cut, epoch) keys tenant a
	// already pulled — every fetch must have hit the shared cache.
	statsB := shared.TenantStats("tenant-b")
	if statsB.Hits == 0 {
		t.Fatal("overlapping tenant saw no shared-cache hits")
	}
	if statsB.Misses != 0 {
		t.Fatalf("tenant b missed %d times on a fully warmed cache", statsB.Misses)
	}
	if repB.BytesFetched != 0 {
		t.Fatalf("tenant b moved %d wire bytes for fully cached samples", repB.BytesFetched)
	}
	if repA.BytesFetched == 0 {
		t.Fatal("tenant a reported no wire traffic")
	}
	if snap := shared.Snapshot(); snap.HitRate() != 0.5 {
		t.Fatalf("fleet hit rate %.2f, want 0.5 (one warm epoch after one cold)", snap.HitRate())
	}
}
