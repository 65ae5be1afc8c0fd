// Integration tests for the sharded tier over real storage servers. The
// trainer's dead-shard scenario is in internal/trainsim, which imports this
// package.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/wire"
)

func testStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "cluster-test", N: n, Seed: 7, MinDim: 32, MaxDim: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testPipe() *pipeline.Pipeline {
	return pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: -1})
}

func launch(t testing.TB, store *storage.Store, shards, cores int) *Cluster {
	t.Helper()
	c, err := Launch(Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      testPipe(),
		CoresPerShard: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func shardedClient(t testing.TB, c *Cluster, degraded bool) *ShardedClient {
	t.Helper()
	sc, err := c.NewShardedClient(storage.ClientOptions{JobID: 42}, 2, time.Millisecond, degraded)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// TestShardedFetchBatch fans a batch across every shard and checks the
// results come back in input order with the exact stored bytes (split 0 ships
// the raw object, so the payload is directly comparable).
func TestShardedFetchBatch(t *testing.T) {
	const n = 60
	store := testStore(t, n)
	c := launch(t, store, 3, 1)
	sc := shardedClient(t, c, false)

	if tier := sc.Tier(); tier.Samples != n || tier.Shards != 3 || tier.Pipeline != testPipe().Fingerprint() {
		t.Fatalf("Tier = %+v, want %d samples over 3 shards running %v", tier, n, testPipe().Fingerprint())
	}

	samples := make([]uint32, n)
	splits := make([]int, n)
	for i := range samples {
		samples[i] = uint32(n - 1 - i) // reversed, so order preservation is visible
	}
	res, err := sc.FetchBatch(context.Background(), samples, splits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("got %d results for %d samples", len(res), n)
	}
	for i, r := range res {
		if r.Sample != samples[i] {
			t.Fatalf("result %d is sample %d, want %d (order not preserved)", i, r.Sample, samples[i])
		}
		if r.Status != wire.FetchOK || r.Err != nil {
			t.Fatalf("sample %d: status %v err %v", r.Sample, r.Status, r.Err)
		}
		want, err := store.Get(samples[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Artifact.Kind != pipeline.KindRaw || !bytes.Equal(r.Artifact.Raw, want) {
			t.Fatalf("sample %d: wrong payload back", r.Sample)
		}
	}

	// Every shard served its partition — no shard sat idle.
	for s, ctr := range c.Counters() {
		if got := ctr.SamplesServed.Load(); got == 0 {
			t.Errorf("shard %d served 0 samples", s)
		}
	}
}

// TestShardedFetchOffloaded checks a non-zero split round-trips through a
// shard's executor: the artifact comes back preprocessed, not raw.
func TestShardedFetchOffloaded(t *testing.T) {
	store := testStore(t, 12)
	c := launch(t, store, 2, 1)
	sc := shardedClient(t, c, false)

	res, err := storage.FetchOne(context.Background(), sc, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.FetchOK || res.Split != 1 || res.Artifact.Kind == pipeline.KindRaw {
		t.Fatalf("offloaded fetch: status %v split %d kind %v", res.Status, res.Split, res.Artifact.Kind)
	}
}

// fakeShard satisfies ShardClient with canned answers — just enough to probe
// newShardedClient's validation. It states shard s of 2.
type fakeShard struct{ n, s int }

func (f *fakeShard) Fetch(context.Context, uint32, int, uint64) (storage.FetchResult, error) {
	return storage.FetchResult{}, errors.New("fake")
}
func (f *fakeShard) FetchBatch(context.Context, []uint32, []int, uint64) ([]storage.FetchResult, error) {
	return nil, errors.New("fake")
}
func (f *fakeShard) Stats(context.Context) (wire.StatsResp, error) { return wire.StatsResp{}, nil }
func (f *fakeShard) Tier() storage.Tier {
	return storage.Tier{Samples: f.n, Shard: f.s, Shards: 2}
}
func (f *fakeShard) Close() error { return nil }

func TestNewShardedClientValidation(t *testing.T) {
	m, err := NewShardMap(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newShardedClient(nil, []ShardClient{&fakeShard{n: 4}, &fakeShard{n: 4, s: 1}}, false); err == nil {
		t.Error("accepted nil shard map")
	}
	if _, err := newShardedClient(m, []ShardClient{&fakeShard{n: 4}}, false); err == nil {
		t.Error("accepted 1 session for 2 shards")
	}
	if _, err := newShardedClient(m, []ShardClient{&fakeShard{n: 4}, nil}, false); err == nil {
		t.Error("accepted nil session")
	}
	if _, err := newShardedClient(m, []ShardClient{&fakeShard{n: 4}, &fakeShard{n: 5, s: 1}}, false); err == nil {
		t.Error("accepted shards disagreeing on dataset size")
	}
	_, err = newShardedClient(m, []ShardClient{&fakeShard{n: 4, s: 1}, &fakeShard{n: 4}}, false)
	if want := "cluster: the server dialed as shard 0 of 2 states it is shard 1 of 2"; err == nil || err.Error() != want {
		t.Errorf("swapped shards: err = %v, want %s", err, want)
	}
	one, err := NewShardMap(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = newShardedClient(one, []ShardClient{&fakeShard{n: 4}}, false)
	if want := "cluster: the server dialed as shard 0 of 1 states it is shard 0 of 2"; err == nil || err.Error() != want {
		t.Errorf("one session to a two-shard tier: err = %v, want %s", err, want)
	}
	sc, err := newShardedClient(m, []ShardClient{&fakeShard{n: 4}, &fakeShard{n: 4, s: 1}}, false)
	if err != nil {
		t.Errorf("rejected a consistent cluster: %v", err)
	} else if tier := sc.Tier(); tier.Shard != 0 || tier.Shards != 2 {
		t.Errorf("the fan-out states shard %d of %d, want 0 of 2", tier.Shard, tier.Shards)
	}
}

// TestDialShardedClosesOnFailure: when shard k cannot be dialed, the k
// sessions already open are closed and the error names shard k; when every
// shard dials but one disagrees on the dataset size, all are closed.
func TestDialShardedClosesOnFailure(t *testing.T) {
	c := launch(t, testStore(t, 8), 3, 0)
	other := launch(t, testStore(t, 5), 1, 0)
	refused := errors.New("refused")
	check := func(name string, opened []*storage.Client) {
		t.Helper()
		for s, sc := range opened {
			if _, err := sc.Stats(context.Background()); !errors.Is(err, storage.ErrClientClosed) {
				t.Errorf("%s: shard %d's session still open (Stats: %v)", name, s, err)
			}
		}
	}
	for k := 0; k < 3; k++ {
		var opened []*storage.Client
		dial := func(s int) (*storage.Client, error) {
			if s == k {
				return nil, refused
			}
			sc, err := c.dialShard(s, storage.ClientOptions{})
			if err == nil {
				opened = append(opened, sc)
			}
			return sc, err
		}
		_, err := DialSharded(c.ShardMap(), dial, 2, 0, false)
		if !errors.Is(err, refused) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d:", k)) {
			t.Fatalf("shard %d refused: err = %v", k, err)
		}
		if len(opened) != k {
			t.Fatalf("shard %d refused: %d sessions opened, want %d", k, len(opened), k)
		}
		check(fmt.Sprintf("shard %d refused", k), opened)
	}

	var opened []*storage.Client
	dial := func(s int) (*storage.Client, error) {
		from, shard := c, s
		if s == 2 {
			from, shard = other, 0
		}
		sc, err := from.dialShard(shard, storage.ClientOptions{})
		if err == nil {
			opened = append(opened, sc)
		}
		return sc, err
	}
	if _, err := DialSharded(c.ShardMap(), dial, 2, 0, false); err == nil || len(opened) != 3 {
		t.Fatalf("sizes 8, 8, 5: err = %v with %d sessions opened", err, len(opened))
	}
	check("sizes 8, 8, 5", opened)
}

// TestDialShardedRefusesShardsThatDisagree: a two-shard tier whose second
// shard serves another crop is refused at connect, with a typed error naming
// both shards' pipelines, and both sessions are closed.
func TestDialShardedRefusesShardsThatDisagree(t *testing.T) {
	store := testStore(t, 8)
	c := launch(t, store, 2, 1)
	other, err := Launch(Config{Shards: 2, Store: store, CoresPerShard: 1,
		Pipeline: pipeline.Standard(pipeline.StandardOptions{CropSize: 96, FlipP: -1})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	var opened []*storage.Client
	dial := func(s int) (*storage.Client, error) {
		from := c
		if s == 1 {
			from = other
		}
		sc, err := from.dialShard(s, storage.ClientOptions{})
		if err == nil {
			opened = append(opened, sc)
		}
		return sc, err
	}
	_, err = DialSharded(c.ShardMap(), dial, 2, 0, false)
	var mis *pipeline.MismatchError
	if !errors.As(err, &mis) || mis.Side != "shard 1" || mis.Pipeline.Crop != 96 || mis.Other != "shard 0" || mis.OtherPipeline.Crop != 24 {
		t.Fatalf("crops 24, 96: err = %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1 runs {") || !strings.Contains(err.Error(), " Crop:96 FlipP:0.5}, shard 0 runs {") {
		t.Errorf("error does not name both sides: %v", err)
	}
	for s, sc := range opened {
		if _, err := sc.Stats(context.Background()); !errors.Is(err, storage.ErrClientClosed) {
			t.Errorf("shard %d's session still open (Stats: %v)", s, err)
		}
	}
}

func TestShardedBatchValidation(t *testing.T) {
	store := testStore(t, 8)
	c := launch(t, store, 2, 0)
	sc := shardedClient(t, c, false)
	ctx := context.Background()
	if _, err := sc.FetchBatch(ctx, nil, nil, 1); err == nil {
		t.Error("accepted empty batch")
	}
	if _, err := sc.FetchBatch(ctx, []uint32{1, 2}, []int{0}, 1); err == nil {
		t.Error("accepted mismatched samples/splits")
	}
	big := make([]uint32, wire.MaxBatchItems+1)
	if _, err := sc.FetchBatch(ctx, big, make([]int, len(big)), 1); err == nil {
		t.Error("accepted oversized batch")
	}
}

// TestStatsAggregation checks ShardStats breaks the tier's counters out per
// shard: every shard served some of the batch, and the per-shard sums cover
// exactly the samples served and at least the payload bytes shipped.
func TestStatsAggregation(t *testing.T) {
	const n = 40
	store := testStore(t, n)
	c := launch(t, store, 4, 0)
	sc := shardedClient(t, c, false)
	ctx := context.Background()

	samples := make([]uint32, n)
	for i := range samples {
		samples[i] = uint32(i)
	}
	if _, err := sc.FetchBatch(ctx, samples, make([]int, n), 1); err != nil {
		t.Fatal(err)
	}

	var served, sent uint64
	for _, ss := range sc.ShardStats(ctx) {
		if ss.Err != nil {
			t.Fatalf("shard %d stats: %v", ss.Shard, ss.Err)
		}
		if ss.Stats.SamplesServed == 0 {
			t.Errorf("shard %d reports 0 samples served", ss.Shard)
		}
		served += ss.Stats.SamplesServed
		sent += ss.Stats.BytesSent
	}
	if served != uint64(n) {
		t.Errorf("per-shard SamplesServed sum = %d, want %d", served, n)
	}
	if sent < uint64(store.TotalBytes()) {
		t.Errorf("per-shard BytesSent sum = %d < %d payload bytes shipped", sent, store.TotalBytes())
	}
}

// TestKillShardDegradedBatch: with DegradedMode on, a dead shard fails only
// its own items — every healthy shard's samples still arrive.
func TestKillShardDegradedBatch(t *testing.T) {
	const n = 48
	store := testStore(t, n)
	c := launch(t, store, 3, 0)
	// Both clients dial while the cluster is healthy — the kill happens
	// mid-session, as a real storage-node crash would.
	sc := shardedClient(t, c, true)
	strict := shardedClient(t, c, false)

	const dead = 1
	if err := c.KillShard(dead); err != nil {
		t.Fatal(err)
	}

	samples := make([]uint32, n)
	for i := range samples {
		samples[i] = uint32(i)
	}
	res, err := sc.FetchBatch(context.Background(), samples, make([]int, n), 1)
	if err != nil {
		t.Fatalf("degraded FetchBatch: %v", err)
	}
	for i, r := range res {
		onDead := c.ShardMap().ShardOf(samples[i]) == dead
		if onDead {
			if r.Err == nil || !errors.Is(r.Err, ErrShardDown) {
				t.Fatalf("sample %d on dead shard: err %v, want ErrShardDown", samples[i], r.Err)
			}
			if r.Status != wire.FetchFailed {
				t.Fatalf("sample %d on dead shard: status %v", samples[i], r.Status)
			}
		} else if r.Err != nil || r.Status != wire.FetchOK {
			t.Fatalf("sample %d on healthy shard failed: %v", samples[i], r.Err)
		}
	}

	// Outside DegradedMode the same batch fails as a whole.
	if _, err := strict.FetchBatch(context.Background(), samples, make([]int, n), 1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("strict FetchBatch err = %v, want ErrShardDown", err)
	}

	// Per-shard stats isolate the dead shard: only it reports an error.
	for _, ss := range sc.ShardStats(context.Background()) {
		if (ss.Err != nil) != (ss.Shard == dead) {
			t.Fatalf("shard %d stats err = %v (dead shard %d)", ss.Shard, ss.Err, dead)
		}
	}
}

// TestLaunchValidation covers Launch's refusals.
func TestLaunchValidation(t *testing.T) {
	store := testStore(t, 8)
	if _, err := Launch(Config{Shards: 1, Pipeline: testPipe()}); err == nil {
		t.Error("accepted nil store")
	}
	if _, err := Launch(Config{Shards: 1, Store: store}); err == nil {
		t.Error("accepted nil pipeline")
	}
	if _, err := Launch(Config{Shards: 0, Store: store, Pipeline: testPipe()}); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := Launch(Config{Shards: 9, Store: store, Pipeline: testPipe()}); err == nil {
		t.Error("accepted more shards than samples")
	}
}

// TestShardsShareOneAdmissionController assembles the tier the way
// sophon-server -shards -admit-bytes does — one storage.Server per ShardStore
// partition, all handed the same controller: normal traffic is admitted and
// counted once per fetch, and with the budget pinned full from outside,
// fetches to ANY shard shed with the typed busy error — the gate is global,
// not per-shard.
func TestShardsShareOneAdmissionController(t *testing.T) {
	const n, shards = 60, 3
	store := testStore(t, n)
	adm, err := storage.NewAdmissionController(storage.AdmissionConfig{
		MaxInFlightBytes:  store.TotalBytes(),
		MaxQueuePerTenant: 1,
		RetryAfter:        20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewShardMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]ShardClient, shards)
	for s := range sessions {
		part, err := ShardStore(store, m, s)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := storage.NewServer(storage.ServerConfig{Store: part, Pipeline: testPipe(), Cores: 1, Admission: adm})
		if err != nil {
			t.Fatal(err)
		}
		l := netsim.NewPipeListener()
		go srv.Serve(l)
		t.Cleanup(func() { l.Close(); srv.Close() })
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		if sessions[s], err = storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: 42}); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := newShardedClient(m, sessions, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })

	samples := make([]uint32, n)
	for i := range samples {
		samples[i] = uint32(i)
	}
	if _, err := sc.FetchBatch(context.Background(), samples, make([]int, n), 1); err != nil {
		t.Fatal(err)
	}
	// One batch Acquire per shard the fan-out touched.
	if got := adm.Stats().Admitted; got != 3 {
		t.Fatalf("Admitted = %d, want 3 (one per shard)", got)
	}

	// Pin the budget: the next fetch queues (bound 1) or sheds, on whichever
	// shard it lands. Retries are budgeted so the typed error surfaces.
	release, err := adm.Acquire(99, store.TotalBytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := storage.FetchOne(context.Background(), sc, 0, 0, 1)
		done <- err
	}()
	// The fetch is parked in the admission queue, not failed.
	deadline := time.Now().Add(2 * time.Second)
	for adm.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fetch never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("queued fetch after release: %v", err)
	}
}

// TestSetLinkMbps: an unshaped tier has no link to retune, and a shaped one
// retunes every shard's bucket. Launched at 8 Gbit/s and retuned to 8 Mbit/s
// (1 MB/s), each shard ships its owned samples, in batches of 64, on the
// virtual clock in the time their bytes beyond the link burst take at 1 MB/s
// — at the launch rate they would take under a millisecond.
func TestSetLinkMbps(t *testing.T) {
	const n, shards, rate = 480, 2, 1e6
	store := testStore(t, n)
	if err := launch(t, store, shards, 0).SetLinkMbps(8); err == nil {
		t.Fatal("a tier launched without LinkMbps accepted SetLinkMbps")
	}

	clock := simclock.NewVirtual(time.Unix(0, 0))
	c, err := Launch(Config{Shards: shards, Store: store, Pipeline: testPipe(), LinkMbps: 8000, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetLinkMbps(0); err == nil {
		t.Fatal("SetLinkMbps accepted a zero rate")
	}
	if err := c.SetLinkMbps(8); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < shards; s++ {
		client, err := c.dialShard(s, storage.ClientOptions{JobID: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		owned := c.ShardMap().Owned(n, s)
		type fetched struct {
			frame int
			err   error
		}
		done := make(chan fetched, 1)
		go func() {
			var got fetched
			for len(owned) > 0 {
				batch := owned[:min(len(owned), 64)]
				owned = owned[len(batch):]
				res, err := client.FetchBatch(context.Background(), batch, make([]int, len(batch)), 1)
				if err != nil {
					got.err = err
					break
				}
				for _, r := range res {
					got.frame += r.WireBytes
				}
			}
			done <- got
		}()
		// Step the clock a millisecond whenever the shard's writer sleeps on
		// it, until the response is in.
		start := clock.Now()
		var got fetched
	wait:
		for {
			select {
			case got = <-done:
				break wait
			default:
			}
			if clock.PendingWaiters() > 0 {
				clock.Advance(time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		if got.err != nil {
			t.Fatalf("shard %d: %v", s, got.err)
		}
		frame := got.frame
		if frame < 2*netsim.LinkBurst {
			t.Fatalf("shard %d shipped %d B: too few to drain the burst and time the rest", s, frame)
		}
		want := time.Duration(float64(frame-netsim.LinkBurst) / rate * float64(time.Second))
		if elapsed := clock.Now().Sub(start); elapsed < want-time.Millisecond || elapsed > want+2*time.Millisecond {
			t.Errorf("shard %d: %d B took %v on the virtual clock, want %v at 1 MB/s past the burst", s, frame, elapsed, want)
		}
	}
}
