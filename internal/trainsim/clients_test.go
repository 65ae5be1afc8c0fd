package trainsim

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/policy"
	"repro/internal/storage"
)

// Compile-time checks: every composition satisfies storage.Fetcher.
var (
	_ storage.Fetcher = (*storage.Client)(nil)
	_ storage.Fetcher = (*storage.ReconnectingClient)(nil)
	_ storage.Fetcher = (*cache.FetchingCache)(nil)
)

// TestTrainerWithReconnectingClientSurvivesFlakyLinks runs a full epoch
// where every connection dies after a byte budget; the reconnecting client
// must transparently redial and the epoch complete.
func TestTrainerWithReconnectingClientSurvivesFlakyLinks(t *testing.T) {
	h := newHarness(t, 16, 2)
	cfg := h.config()
	cfg.DialClient = func() (storage.Fetcher, error) {
		dial := func() (*storage.Client, error) {
			conn, err := h.listener.Dial()
			if err != nil {
				return nil, err
			}
			// Each connection survives ~6 sample transfers (64² crops run
			// ~12 KB each plus raws), then fails.
			return storage.NewClientWithOptions(chaos.WrapConn(conn, chaos.CloseAfter(150<<10), nil, nil, nil), storage.ClientOptions{JobID: 7})
		}
		return storage.NewReconnecting(dial, 8, time.Millisecond, nil)
	}
	tr := newTrainer(t, cfg)
	rep, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 16 {
		t.Fatalf("trained %d samples over flaky links", rep.Samples)
	}
}

// TestTrainerWithCachingClient runs a local cache over a retry-wrapped
// session on a progressive store: the second epoch's raw fetches all hit
// locally, and so does a third epoch under a reduced-fidelity plan — the
// cache truncates its full containers itself, so no directive reaches the
// wire and the server slices nothing.
func TestTrainerWithCachingClient(t *testing.T) {
	const n = 12
	h := progressiveHarness(t, n, 0)
	inner, err := cache.NewNoEvict(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.config()
	cfg.DialClient = func() (storage.Fetcher, error) {
		rc, err := storage.NewReconnecting(func() (*storage.Client, error) {
			conn, err := h.listener.Dial()
			if err != nil {
				return nil, err
			}
			return storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: 7})
		}, 3, time.Millisecond, nil)
		if err != nil {
			return nil, err
		}
		return cache.NewFetchingCache(rc, inner), nil
	}
	tr := newTrainer(t, cfg)

	first, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.RunEpoch(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.BytesFetched == 0 {
		t.Fatal("first epoch fetched nothing")
	}
	if second.BytesFetched != 0 {
		t.Fatalf("second epoch fetched %d bytes despite a warm cache", second.BytesFetched)
	}
	if inner.Stats().HitRate() <= 0 {
		t.Fatal("cache recorded no hits")
	}

	reduced, err := policy.NewUniformPlan("prog", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced.Fidelity = make([]uint8, n)
	for i := range reduced.Fidelity {
		reduced.Fidelity[i] = 2
	}
	third, err := tr.RunEpoch(3, reduced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.Samples != n || third.BytesFetched != 0 {
		t.Fatalf("reduced-fidelity epoch over a warm cache: %d samples, %d wire bytes, want %d and 0",
			third.Samples, third.BytesFetched, n)
	}
	if got := h.server.Counters().PrefixServed.Load(); got != 0 {
		t.Fatalf("server sliced %d prefixes the cache should have served", got)
	}
}

// TestTrainerCachingWithBatchedFetches combines the cache wrapper with
// batched fetches.
func TestTrainerCachingWithBatchedFetches(t *testing.T) {
	h := newHarness(t, 12, 0)
	inner, err := cache.NewNoEvict(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.config()
	cfg.FetchBatchSize = 4
	cfg.DialClient = func() (storage.Fetcher, error) {
		conn, err := h.listener.Dial()
		if err != nil {
			return nil, err
		}
		c, err := storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: 7})
		if err != nil {
			return nil, err
		}
		return cache.NewFetchingCache(c, inner), nil
	}
	tr := newTrainer(t, cfg)
	if _, err := tr.RunEpoch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	second, err := tr.RunEpoch(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.BytesFetched != 0 {
		t.Fatalf("warm batched epoch fetched %d bytes", second.BytesFetched)
	}
}
