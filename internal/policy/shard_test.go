package policy

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestModelForShardedOffloadPlan: under an offloading plan, one shard's T_Net
// and T_CS are the plan's whole traffic and storage CPU over one link and
// one set of cores, and K shards' maxima lie between a perfectly balanced
// 1/K of those and the whole.
func TestModelForShardedOffloadPlan(t *testing.T) {
	tr := openImages(t, 200)
	env := paperEnv(8)
	plan, err := (&Sophon{}).Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OffloadedCount() == 0 {
		t.Fatal("plan offloads nothing")
	}
	traffic, err := plan.Traffic(tr)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ModelFor(tr, plan, env)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(float64(traffic) / env.Bandwidth * float64(time.Second)); whole.TNet != want {
		t.Fatalf("one shard: T_Net %v, want the plan's traffic over one link, %v", whole.TNet, want)
	}
	if want := storageCPU(plan, tr) / time.Duration(env.StorageCores); whole.TCS != want {
		t.Fatalf("one shard: T_CS %v, want the plan's storage CPU over its cores, %v", whole.TCS, want)
	}
	for _, k := range []int{2, 4} {
		env.Shards = k
		m, err := ModelFor(tr, plan, env)
		if err != nil {
			t.Fatal(err)
		}
		d := time.Duration(k)
		if m.TNet < whole.TNet/d || m.TNet > whole.TNet || m.TCS < whole.TCS/d || m.TCS > whole.TCS {
			t.Errorf("shards=%d: T_Net %v, T_CS %v outside [1/%d, 1] of %v, %v",
				k, m.TNet, m.TCS, k, whole.TNet, whole.TCS)
		}
	}
}

func TestEnvValidateRejectsNegativeShards(t *testing.T) {
	env := paperEnv(4)
	env.Shards = -1
	if err := env.Validate(); err == nil {
		t.Fatal("accepted negative shard count")
	}
}

// TestModelForSharded: with K shards the storage-side metrics are per-shard
// maxima, so T_Net sits between the single-link time divided by K (perfect
// balance) and the whole single-link time, and shrinks as shards are added.
func TestModelForSharded(t *testing.T) {
	tr := openImages(t, 400)
	plan, _ := NewUniformPlan("No-Off", tr.N(), 0)

	single := paperEnv(4)
	base, err := ModelFor(tr, plan, single)
	if err != nil {
		t.Fatal(err)
	}

	// Shards: 1 must be byte-identical to the unset (paper) model.
	one := single
	one.Shards = 1
	m1, err := ModelFor(tr, plan, one)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != base {
		t.Fatalf("Shards=1 model %+v differs from paper model %+v", m1, base)
	}

	prev := base.TNet
	for _, k := range []int{2, 4} {
		env := single
		env.Shards = k
		m, err := ModelFor(tr, plan, env)
		if err != nil {
			t.Fatal(err)
		}
		if m.TNet >= prev {
			t.Errorf("shards=%d: TNet %v did not shrink from %v", k, m.TNet, prev)
		}
		if m.TNet < base.TNet/time.Duration(k) {
			t.Errorf("shards=%d: TNet %v below perfect-balance bound %v", k, m.TNet, base.TNet/time.Duration(k))
		}
		if m.TG != base.TG || m.TCC != base.TCC {
			t.Errorf("shards=%d: sharding changed non-storage metrics", k)
		}
		prev = m.TNet
	}
}

// TestSophonShardedPlan: the per-shard greedy loop must (a) collapse to the
// paper's scalar loop at one shard, and (b) still produce plans whose
// predicted epoch improves on No-Off when the workload is link-bound.
func TestSophonShardedPlan(t *testing.T) {
	tr := openImages(t, 400)
	s := NewSophon()

	legacy, err := s.Plan(tr, paperEnv(8))
	if err != nil {
		t.Fatal(err)
	}
	envOne := paperEnv(8)
	envOne.Shards = 1
	one, err := s.Plan(tr, envOne)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.N(); i++ {
		if legacy.Split(i) != one.Split(i) {
			t.Fatalf("sample %d: Shards=1 split %d differs from paper split %d", i, one.Split(i), legacy.Split(i))
		}
	}

	for _, k := range []int{2, 4} {
		// Keep the per-shard link slow enough that the sharded workload is
		// still I/O-bound, otherwise the stage-1 gate plans nothing.
		env := paperEnv(8)
		env.Bandwidth = netsim.Mbps(200)
		env.Shards = k
		plan, err := s.Plan(tr, env)
		if err != nil {
			t.Fatal(err)
		}
		if plan.OffloadedCount() == 0 {
			t.Fatalf("shards=%d: link-bound workload planned no offloads", k)
		}
		noOff, _ := NewUniformPlan("No-Off", tr.N(), 0)
		mOff, err := ModelFor(tr, plan, env)
		if err != nil {
			t.Fatal(err)
		}
		mNo, err := ModelFor(tr, noOff, env)
		if err != nil {
			t.Fatal(err)
		}
		if mOff.Predicted() > mNo.Predicted() {
			t.Errorf("shards=%d: offload plan predicts %v, worse than No-Off's %v",
				k, mOff.Predicted(), mNo.Predicted())
		}
	}
}

// TestSophonStopsPerShard: after planning, no shard may still have a
// strictly dominant T_Net while offloadable candidates remain on it — the
// per-shard generalization of the paper's stop condition.
func TestSophonStopsPerShard(t *testing.T) {
	tr := openImages(t, 400)
	const k = 4
	env := paperEnv(8)
	env.Bandwidth = netsim.Mbps(200)
	env.Shards = k
	plan, err := NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := newTerms(tr, plan, env)
	if err != nil {
		t.Fatal(err)
	}
	cands := Candidates(tr)
	remaining := make([]int, k)
	for _, c := range cands {
		if c.Saving > 0 && plan.Split(c.ID) == 0 {
			remaining[ts.shards.ShardOf(uint32(c.ID))]++
		}
	}
	for s := 0; s < k; s++ {
		if ts.netDominant(s) && remaining[s] > 0 {
			t.Errorf("shard %d still net-dominant (TNet %v) with %d candidates left", s, ts.tnet[s], remaining[s])
		}
	}
}
