// Integration tests for the sharded tier. They live in an external test
// package because the trainer (repro/internal/trainsim) imports the policy
// layer, which imports cluster — the degradation test drives a real trainer
// over a real cluster, so the import has to point this way.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/trainsim"
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

func launch(t testing.TB, store *storage.Store, shards, cores int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Launch(cluster.Config{
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

func shardedClient(t testing.TB, c *cluster.Cluster, degraded bool) *cluster.ShardedClient {
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

	if sc.NumSamples() != n {
		t.Fatalf("NumSamples = %d, want %d", sc.NumSamples(), n)
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

	res, err := sc.Fetch(context.Background(), 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.FetchOK || res.Split != 1 || res.Artifact.Kind == pipeline.KindRaw {
		t.Fatalf("offloaded fetch: status %v split %d kind %v", res.Status, res.Split, res.Artifact.Kind)
	}
}

// fakeShard satisfies ShardClient with canned answers — just enough to probe
// NewShardedClient's validation.
type fakeShard struct{ n int }

func (f *fakeShard) Fetch(context.Context, uint32, int, uint64) (storage.FetchResult, error) {
	return storage.FetchResult{}, errors.New("fake")
}
func (f *fakeShard) FetchBatch(context.Context, []uint32, []int, uint64) ([]storage.FetchResult, error) {
	return nil, errors.New("fake")
}
func (f *fakeShard) Stats(context.Context) (wire.StatsResp, error) { return wire.StatsResp{}, nil }
func (f *fakeShard) NumSamples() int                               { return f.n }
func (f *fakeShard) Close() error                                  { return nil }

func TestNewShardedClientValidation(t *testing.T) {
	m, err := cluster.NewShardMap(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewShardedClient(nil, []cluster.ShardClient{&fakeShard{n: 4}, &fakeShard{n: 4}}, false); err == nil {
		t.Error("accepted nil shard map")
	}
	if _, err := cluster.NewShardedClient(m, []cluster.ShardClient{&fakeShard{n: 4}}, false); err == nil {
		t.Error("accepted 1 session for 2 shards")
	}
	if _, err := cluster.NewShardedClient(m, []cluster.ShardClient{&fakeShard{n: 4}, nil}, false); err == nil {
		t.Error("accepted nil session")
	}
	if _, err := cluster.NewShardedClient(m, []cluster.ShardClient{&fakeShard{n: 4}, &fakeShard{n: 5}}, false); err == nil {
		t.Error("accepted shards disagreeing on dataset size")
	}
	if _, err := cluster.NewShardedClient(m, []cluster.ShardClient{&fakeShard{n: 4}, &fakeShard{n: 4}}, false); err != nil {
		t.Errorf("rejected a consistent cluster: %v", err)
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

// TestStatsAggregation checks Stats sums across shards and ShardStats
// breaks the same numbers out per shard.
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

	agg, err := sc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.SamplesServed != uint64(n) {
		t.Errorf("aggregate SamplesServed = %d, want %d", agg.SamplesServed, n)
	}
	if agg.BytesSent < uint64(store.TotalBytes()) {
		t.Errorf("aggregate BytesSent = %d < %d payload bytes shipped", agg.BytesSent, store.TotalBytes())
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
	if served != agg.SamplesServed {
		t.Errorf("per-shard served sum %d disagrees with aggregate %d", served, agg.SamplesServed)
	}
	// The per-shard snapshots were taken one RPC round later, so they may
	// additionally cover the first round's stats frames — never less.
	if sent < agg.BytesSent || sent > agg.BytesSent+4096 {
		t.Errorf("per-shard bytes sum %d vs aggregate %d (want within one stats round)", sent, agg.BytesSent)
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
			if r.Err == nil || !errors.Is(r.Err, cluster.ErrShardDown) {
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
	if _, err := strict.FetchBatch(context.Background(), samples, make([]int, n), 1); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("strict FetchBatch err = %v, want ErrShardDown", err)
	}

	// Degraded Stats skips the dead shard instead of erroring.
	if _, err := sc.Stats(context.Background()); err != nil {
		t.Fatalf("degraded Stats: %v", err)
	}
	if _, err := strict.Stats(context.Background()); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("strict Stats err = %v, want ErrShardDown", err)
	}
}

// TestTrainerSurvivesDeadShard is the acceptance scenario: kill one shard of
// three, and a trainer in DegradedMode still completes the epoch, reporting
// exactly the dead shard's samples as failures. The same epoch without
// DegradedMode aborts.
func TestTrainerSurvivesDeadShard(t *testing.T) {
	const n = 60
	store := testStore(t, n)
	c := launch(t, store, 3, 0)

	const dead = 2
	lost := len(c.ShardMap().Owned(n, dead))
	if lost == 0 || lost == n {
		t.Fatalf("degenerate placement: shard %d owns %d of %d", dead, lost, n)
	}

	config := func(degraded bool) trainsim.Config {
		return trainsim.Config{
			DialClient: func() (storage.Fetcher, error) {
				return c.NewShardedClient(storage.ClientOptions{JobID: 9}, 2, time.Millisecond, degraded)
			},
			Workers:        2,
			Pipeline:       testPipe(),
			GPU:            gpu.AlexNet,
			BatchSize:      8,
			JobID:          9,
			FetchBatchSize: 8,
			DegradedMode:   degraded,
		}
	}

	// Both trainers dial while every shard is up; the crash happens before
	// their epochs start.
	tr, err := trainsim.New(config(true))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	strict, err := trainsim.New(config(false))
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()

	if err := c.KillShard(dead); err != nil {
		t.Fatal(err)
	}

	rep, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatalf("degraded epoch: %v", err)
	}
	if rep.Failed != lost {
		t.Errorf("Failed = %d, want the dead shard's %d samples", rep.Failed, lost)
	}
	if rep.Samples != n-lost {
		t.Errorf("Samples = %d, want %d", rep.Samples, n-lost)
	}

	if _, err := strict.RunEpoch(1, nil, nil); err == nil {
		t.Error("non-degraded epoch completed despite a dead shard")
	}
}

// TestLaunchValidation covers Launch's refusals.
func TestLaunchValidation(t *testing.T) {
	store := testStore(t, 8)
	if _, err := cluster.Launch(cluster.Config{Shards: 1, Pipeline: testPipe()}); err == nil {
		t.Error("accepted nil store")
	}
	if _, err := cluster.Launch(cluster.Config{Shards: 1, Store: store}); err == nil {
		t.Error("accepted nil pipeline")
	}
	if _, err := cluster.Launch(cluster.Config{Shards: 0, Store: store, Pipeline: testPipe()}); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := cluster.Launch(cluster.Config{Shards: 9, Store: store, Pipeline: testPipe()}); err == nil {
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
	m, err := cluster.NewShardMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]cluster.ShardClient, shards)
	for s := range sessions {
		part, err := cluster.ShardStore(store, m, s)
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
	sc, err := cluster.NewShardedClient(m, sessions, false)
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
		_, err := sc.Fetch(context.Background(), 0, 0, 1)
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
