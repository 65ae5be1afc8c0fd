package cache_test

// The fetch stack's one contract, layer by layer: every storage.Fetcher's
// Fetch is its FetchBatch of one, and the plan version a context carries
// reaches the server through any stack of wrappers.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

const stackSamples = 12

// stackBlobs are the four-scan containers every stack tier serves, encoded once.
var stackBlobs = sync.OnceValues(func() ([][]byte, error) {
	blobs := make([][]byte, stackSamples)
	for i := range blobs {
		im, err := imaging.Synthesize(imaging.SynthParams{W: 48 + 8*i, H: 40 + 8*i, Detail: 0.5, Seed: uint64(i + 1)})
		if err != nil {
			return nil, err
		}
		if blobs[i], err = imaging.EncodeProgressive(im, 80, imaging.MaxScans); err != nil {
			return nil, err
		}
	}
	return blobs, nil
})

// launchProgressiveTier serves four-scan containers, so a fidelity directive
// has scans to withhold.
func launchProgressiveTier(t testing.TB, shards int) *cluster.Cluster {
	t.Helper()
	blobs, err := stackBlobs()
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.NewStore("stack", blobs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Launch(cluster.Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      pipeline.Standard(pipeline.StandardOptions{CropSize: 32, FlipP: 0.5}),
		CoresPerShard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialer returns a ReconnectingClient dial function over shard 0 that
// remembers the session it dialed last, so a test can break it.
type dialer struct {
	tier *cluster.Cluster
	mu   sync.Mutex
	live *storage.Client
}

func (d *dialer) dial() (*storage.Client, error) {
	c, err := d.tier.DialShard(0, storage.ClientOptions{JobID: shareKey})
	d.mu.Lock()
	d.live = c
	d.mu.Unlock()
	return c, err
}

func (d *dialer) breakSession() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.live.Close()
}

// threeDeep stacks TenantFetcher → FetchingCache → ReconnectingClient over
// shard 0 of tier.
func threeDeep(t testing.TB, tier *cluster.Cluster) (*cache.TenantFetcher, *storage.ReconnectingClient, *dialer) {
	t.Helper()
	d := &dialer{tier: tier}
	rc, err := storage.NewReconnecting(d.dial, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := cache.NewLRU(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := cache.NewShared(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := cache.NewTenantFetcher(cache.NewFetchingCache(rc, lru), shared, "t", shareKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf, rc, d
}

// stackLayers is every implementation of storage.Fetcher plus the three-deep
// stack, each built fresh (cold caches) over tier.
var stackLayers = []struct {
	name    string
	sharded bool
	build   func(t testing.TB, tier *cluster.Cluster, degraded bool) storage.Fetcher
}{
	{"Client", false, func(t testing.TB, tier *cluster.Cluster, _ bool) storage.Fetcher {
		c, err := tier.DialShard(0, storage.ClientOptions{JobID: shareKey})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}},
	{"ReconnectingClient", false, func(t testing.TB, tier *cluster.Cluster, _ bool) storage.Fetcher {
		rc, err := storage.NewReconnecting((&dialer{tier: tier}).dial, 2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		return rc
	}},
	{"ShardedClient", true, func(t testing.TB, tier *cluster.Cluster, degraded bool) storage.Fetcher {
		sc, err := tier.NewShardedClient(storage.ClientOptions{JobID: shareKey}, 2, 0, degraded)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sc.Close() })
		return sc
	}},
	{"FetchingCache", false, func(t testing.TB, tier *cluster.Cluster, _ bool) storage.Fetcher {
		c, err := tier.DialShard(0, storage.ClientOptions{JobID: shareKey})
		if err != nil {
			t.Fatal(err)
		}
		lru, err := cache.NewLRU(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		fc := cache.NewFetchingCache(c, lru)
		t.Cleanup(func() { fc.Close() })
		return fc
	}},
	{"TenantFetcher", true, func(t testing.TB, tier *cluster.Cluster, degraded bool) storage.Fetcher {
		sc, err := tier.NewShardedClient(storage.ClientOptions{JobID: shareKey}, 2, 0, degraded)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := cache.NewShared(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := cache.NewTenantFetcher(sc, shared, "t", shareKey)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tf.Close() })
		return tf
	}},
	{"TenantFetcher/FetchingCache/ReconnectingClient", false, func(t testing.TB, tier *cluster.Cluster, _ bool) storage.Fetcher {
		tf, _, _ := threeDeep(t, tier)
		return tf
	}},
}

// sentinels are the error classes a fetch can fail with; both verbs must
// agree on each.
var sentinels = []error{storage.ErrSampleMissing, storage.ErrBadSplitReq, storage.ErrFetchFailed, cluster.ErrShardDown}

// TestFetchIsFetchBatchOfOne asserts FetchOne(s) ≡ FetchBatch([s])[0] on
// two cold instances of each layer: same artifact bytes, directive echo,
// status, wire accounting and error class, with FetchOne folding a failed
// round trip into a result that carries the sample and the error.
func TestFetchIsFetchBatchOfOne(t *testing.T) {
	cases := []struct {
		name      string
		sample    uint32
		directive int
		want      error // nil: the fetch succeeds
		down      bool  // kill the sample's shard first
		degraded  bool
	}{
		{name: "raw", sample: 3},
		{name: "offloaded", sample: 3, directive: 2},
		{name: "reduced fidelity", sample: 5, directive: storage.PackDirective(0, 2)},
		{name: "missing sample", sample: stackSamples + 5, want: storage.ErrSampleMissing},
		{name: "bad split", sample: 3, directive: 200, want: storage.ErrBadSplitReq},
		{name: "shard down", sample: 3, down: true},
		{name: "shard down, degraded", sample: 3, down: true, degraded: true},
	}
	ctx := context.Background()
	for _, layer := range stackLayers {
		for _, c := range cases {
			t.Run(layer.name+"/"+c.name, func(t *testing.T) {
				shards := 1
				if layer.sharded {
					shards = 2
				}
				tier := launchProgressiveTier(t, shards)
				forOne := layer.build(t, tier, c.degraded)
				forBatch := layer.build(t, tier, c.degraded)
				if c.down {
					if err := tier.KillShard(tier.ShardMap().ShardOf(c.sample)); err != nil {
						t.Fatal(err)
					}
				}
				batch, berr := forBatch.FetchBatch(ctx, []uint32{c.sample}, []int{c.directive}, 4)
				one, oerr := storage.FetchOne(ctx, forOne, c.sample, c.directive, 4)

				want := storage.FetchResult{Sample: c.sample, Err: berr}
				if berr == nil {
					if len(batch) != 1 {
						t.Fatalf("FetchBatch of one returned %d results", len(batch))
					}
					want = batch[0]
				}
				if oerr != one.Err {
					t.Fatalf("Fetch returned err %v beside result err %v", oerr, one.Err)
				}
				if (oerr == nil) != (want.Err == nil) {
					t.Fatalf("Fetch err %v, FetchBatch err %v", oerr, want.Err)
				}
				for _, s := range sentinels {
					if errors.Is(oerr, s) != errors.Is(want.Err, s) {
						t.Fatalf("verbs disagree on %v: Fetch %v, FetchBatch %v", s, oerr, want.Err)
					}
				}
				if one.Sample != want.Sample || one.Split != want.Split || one.Fidelity != want.Fidelity ||
					one.Status != want.Status || one.WireBytes != want.WireBytes {
					t.Fatalf("Fetch %+v\nFetchBatch %+v", one, want)
				}

				switch {
				case c.down:
					if oerr == nil {
						t.Fatal("fetch from a dead shard succeeded")
					}
					if layer.sharded && !errors.Is(oerr, cluster.ErrShardDown) {
						t.Fatalf("err = %v, want ErrShardDown", oerr)
					}
				case c.want != nil:
					if !errors.Is(oerr, c.want) {
						t.Fatalf("err = %v, want %v", oerr, c.want)
					}
				default:
					if oerr != nil {
						t.Fatal(oerr)
					}
					if !bytes.Equal(encode(t, one), encode(t, want)) {
						t.Fatal("Fetch and FetchBatch returned different artifacts")
					}
					cut, fid := storage.UnpackDirective(c.directive)
					if one.Split != cut || one.Fidelity != fid || (cut == 0) != (one.Artifact.Kind == pipeline.KindRaw) {
						t.Fatalf("directive (%d, %d) came back as split %d fidelity %d kind %s",
							cut, fid, one.Split, one.Fidelity, one.Artifact.Kind)
					}
					if fid > 0 {
						_, _, _, scans, present, err := imaging.ProgressiveInfo(one.Artifact.Raw)
						if err != nil || present != scans-fid {
							t.Fatalf("withholding %d of %d scans shipped %d (%v)", fid, scans, present, err)
						}
					}
				}
			})
		}
	}
}

// TestPlanVersionThroughStack: the version a context carries reaches the
// server's counters through TenantFetcher → FetchingCache →
// ReconnectingClient, a cache hit sends nothing, and a redialed session
// needs nothing re-applied.
func TestPlanVersionThroughStack(t *testing.T) {
	tier := launchProgressiveTier(t, 1)
	tf, rc, d := threeDeep(t, tier)
	ctr := tier.Server(0).Counters()
	ctx := storage.WithPlanVersion(context.Background(), 7)

	if _, err := storage.FetchOne(ctx, tf, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v := ctr.PlanVersion.Load(); v != 7 {
		t.Fatalf("server saw plan version %d through the stack, want 7", v)
	}

	// From here a stamped round trip counts one regression, an unstamped
	// one nothing.
	ctr.ObservePlanVersion(9)
	served := ctr.SamplesServed.Load()
	if res, err := storage.FetchOne(ctx, tf, 1, 0, 2); err != nil || res.WireBytes != 0 {
		t.Fatalf("repeat fetch: %d wire bytes, err %v, want a cache hit", res.WireBytes, err)
	}
	if ctr.SamplesServed.Load() != served || ctr.PlanRegressions.Load() != 0 {
		t.Fatal("a cache hit reached the server")
	}

	d.breakSession()
	if _, err := tf.FetchBatch(ctx, []uint32{2, 3}, []int{0, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if rc.Retries() != 1 {
		t.Fatalf("%d redials, want 1", rc.Retries())
	}
	if r := ctr.PlanRegressions.Load(); r != 1 {
		t.Fatalf("redialed session carried the stamp on %d round trips, want 1", r)
	}
}
