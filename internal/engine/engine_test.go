package engine

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

func env(storageCores int) policy.Env {
	return policy.Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    storageCores,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
}

func openImages(t testing.TB, n int) *dataset.Trace {
	t.Helper()
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(n), 5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func noOffPlan(t testing.TB, tr *dataset.Trace) *policy.Plan {
	t.Helper()
	p, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunValidation(t *testing.T) {
	tr := openImages(t, 50)
	plan := noOffPlan(t, tr)
	if _, err := Run(Config{Plan: plan, Env: env(0)}); err == nil {
		t.Fatal("accepted nil trace")
	}
	if _, err := Run(Config{Trace: tr, Env: env(0)}); err == nil {
		t.Fatal("accepted nil plan")
	}
	short, _ := policy.NewUniformPlan("s", 10, 0)
	if _, err := Run(Config{Trace: tr, Plan: short, Env: env(0)}); err == nil {
		t.Fatal("accepted mismatched plan")
	}
	if _, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), BatchSize: -1}); err == nil {
		t.Fatal("accepted negative batch")
	}
	if _, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), BatchSize: 64, PrefetchWindow: 32}); err == nil {
		t.Fatal("accepted window < batch")
	}
	bad := env(0)
	bad.Bandwidth = 0
	if _, err := Run(Config{Trace: tr, Plan: plan, Env: bad}); err == nil {
		t.Fatal("accepted invalid env")
	}
	all, _ := policy.NewUniformPlan("all", tr.N(), dataset.OpCount)
	if _, err := Run(Config{Trace: tr, Plan: all, Env: env(0)}); err == nil {
		t.Fatal("accepted offload plan with 0 storage cores")
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := openImages(t, 500)
	plan := noOffPlan(t, tr)
	a, err := Run(Config{Trace: tr, Plan: plan, Env: env(4)})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(Config{Trace: tr, Plan: plan, Env: env(4)})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced %+v then %+v", a, b)
	}
}

// TestTrafficConservation is invariant #4: bytes crossing the link equal
// planned artifact sizes plus per-sample overhead, and link busy time equals
// traffic / bandwidth.
func TestTrafficConservation(t *testing.T) {
	tr := openImages(t, 400)
	plan := noOffPlan(t, tr)
	res, err := Run(Config{Trace: tr, Plan: plan, Env: env(0)})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.TotalRawBytes() + int64(tr.N()*defaultRequestOverhead)
	if res.TrafficBytes != want {
		t.Fatalf("traffic %d, want %d", res.TrafficBytes, want)
	}
	wantBusy := time.Duration(float64(want) / env(0).Bandwidth * float64(time.Second))
	diff := res.LinkBusy - wantBusy
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("link busy %v, want %v", res.LinkBusy, wantBusy)
	}
	// Compute busy equals total preprocessing CPU (nothing offloaded).
	if res.ComputeBusy != tr.TotalPreprocessCPU() {
		t.Fatalf("compute busy %v, want %v", res.ComputeBusy, tr.TotalPreprocessCPU())
	}
	if res.StorageBusy != 0 || res.SamplesOffloaded != 0 {
		t.Fatal("no-off run used storage CPU")
	}
}

// TestRawPricedAsSliced: a raw sample whose measured record carries Sliced
// ships that many bytes, as a live raw fetch that asks for its crop's rows
// does; an offloaded one and a generated record (Sliced 0) ship their stage.
func TestRawPricedAsSliced(t *testing.T) {
	tr := openImages(t, 40)
	plan := noOffPlan(t, tr)
	plan.Splits[1] = 2
	want := int64(tr.N() * defaultRequestOverhead)
	for i := range tr.Records {
		r := &tr.Records[i]
		switch {
		case i == 1:
			r.Sliced = 7 // never read: the sample is offloaded
			want += r.StageSizes[2]
		case i%2 == 0:
			r.Sliced = r.StageSizes[0] / 3
			want += r.Sliced
		default:
			want += r.StageSizes[0]
		}
	}
	res, err := Run(Config{Trace: tr, Plan: plan, Env: env(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficBytes != want {
		t.Fatalf("traffic %d, want %d", res.TrafficBytes, want)
	}
}

// TestEpochTimeTracksLinkWhenIOBound: for the I/O-bound paper setup, the
// epoch time is within a few percent of the pure transfer time.
func TestEpochTimeTracksLinkWhenIOBound(t *testing.T) {
	tr := openImages(t, 2000)
	plan := noOffPlan(t, tr)
	res, err := Run(Config{Trace: tr, Plan: plan, Env: env(0)})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.EpochTime) / float64(res.LinkBusy)
	if ratio < 1.0 || ratio > 1.15 {
		t.Fatalf("epoch/link = %.3f, want just above 1 (pipeline drain only)", ratio)
	}
	if res.GPUUtilization > 0.25 {
		t.Fatalf("AlexNet under 500 Mbps shows %.2f utilization, want low", res.GPUUtilization)
	}
}

// TestGPUUtilizationFigure1d reproduces the figure's regime ordering.
func TestGPUUtilizationFigure1d(t *testing.T) {
	tr := openImages(t, 2000)
	plan := noOffPlan(t, tr)
	util := map[string]float64{}
	for _, m := range gpu.Models() {
		e := env(0)
		e.GPU = m
		res, err := Run(Config{Trace: tr, Plan: plan, Env: e})
		if err != nil {
			t.Fatal(err)
		}
		util[m.Name] = res.GPUUtilization
	}
	if util["resnet50"] < 0.85 {
		t.Fatalf("ResNet50 utilization %.2f, want near max", util["resnet50"])
	}
	if util["resnet18"] < 0.25 || util["resnet18"] > 0.50 {
		t.Fatalf("ResNet18 utilization %.2f, want ~0.35", util["resnet18"])
	}
	if util["alexnet"] > 0.20 {
		t.Fatalf("AlexNet utilization %.2f, want low", util["alexnet"])
	}
}

// TestPolicyOrderingAmpleCores reproduces Figure 3 (OpenImages, 48 cores):
// SOPHON ≤ Resize-Off < No-Off ≈ FastFlow < All-Off on epoch time.
func TestPolicyOrderingAmpleCores(t *testing.T) {
	tr := openImages(t, 3000)
	e := env(48)
	times := map[string]time.Duration{}
	for _, p := range policy.All() {
		res, _, err := RunPolicy(p, tr, e, 256)
		if err != nil {
			t.Fatal(err)
		}
		times[p.Name()] = res.EpochTime
	}
	if !(times["SOPHON"] < times["No-Off"]) {
		t.Fatalf("SOPHON %v not faster than No-Off %v", times["SOPHON"], times["No-Off"])
	}
	if !(times["All-Off"] > times["No-Off"]) {
		t.Fatalf("All-Off %v not slower than No-Off %v", times["All-Off"], times["No-Off"])
	}
	if times["FastFlow"] != times["No-Off"] {
		t.Fatalf("FastFlow %v != No-Off %v (it declines offloading)", times["FastFlow"], times["No-Off"])
	}
	if !(times["SOPHON"] <= times["Resize-Off"]) {
		t.Fatalf("SOPHON %v slower than Resize-Off %v with ample cores", times["SOPHON"], times["Resize-Off"])
	}
	// Headline: 1.2-2.2x improvement over No-Off on OpenImages.
	speedup := float64(times["No-Off"]) / float64(times["SOPHON"])
	if speedup < 1.5 || speedup > 2.6 {
		t.Fatalf("SOPHON speedup %.2fx, want ~2x", speedup)
	}
}

// TestResizeOffWeakStorageCrossover reproduces Figure 4's key crossover:
// with ≤2 storage cores Resize-Off is slower than No-Off; with ample cores
// it is faster.
func TestResizeOffWeakStorageCrossover(t *testing.T) {
	tr := openImages(t, 3000)
	noOff, _, err := RunPolicy(policy.NoOff{}, tr, env(48), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2} {
		res, _, err := RunPolicy(policy.ResizeOff{}, tr, env(cores), 256)
		if err != nil {
			t.Fatal(err)
		}
		if res.EpochTime <= noOff.EpochTime {
			t.Fatalf("Resize-Off@%dcores %v not slower than No-Off %v",
				cores, res.EpochTime, noOff.EpochTime)
		}
	}
	rich, _, err := RunPolicy(policy.ResizeOff{}, tr, env(48), 256)
	if err != nil {
		t.Fatal(err)
	}
	if rich.EpochTime >= noOff.EpochTime {
		t.Fatalf("Resize-Off@48cores %v not faster than No-Off %v", rich.EpochTime, noOff.EpochTime)
	}
}

// TestSophonBestAcrossCoreCounts reproduces Figure 4's headline: SOPHON has
// the shortest epoch of all policies at every storage-core count, with
// diminishing returns as cores grow.
func TestSophonBestAcrossCoreCounts(t *testing.T) {
	tr := openImages(t, 3000)
	var prev time.Duration
	for _, cores := range []int{1, 2, 3, 4, 5} {
		e := env(cores)
		sophon, _, err := RunPolicy(policy.NewSophon(), tr, e, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policy.All() { // SOPHON against itself included
			res, _, err := RunPolicy(p, tr, e, 256)
			if err != nil {
				t.Fatal(err)
			}
			// Allow 1% slack for pipeline-drain noise.
			if float64(sophon.EpochTime) > float64(res.EpochTime)*1.01 {
				t.Fatalf("cores=%d: SOPHON %v slower than %s %v",
					cores, sophon.EpochTime, p.Name(), res.EpochTime)
			}
		}
		if prev > 0 && sophon.EpochTime > prev+prev/50 {
			t.Fatalf("cores=%d: epoch %v regressed vs %v with more cores", cores, sophon.EpochTime, prev)
		}
		prev = sophon.EpochTime
	}
}

// TestDiminishingReturns: the 0→1 core gain exceeds the 4→5 core gain
// (paper: 22 s vs 9 s at full scale).
func TestDiminishingReturns(t *testing.T) {
	tr := openImages(t, 4000)
	run := func(cores int) time.Duration {
		res, _, err := RunPolicy(policy.NewSophon(), tr, env(cores), 256)
		if err != nil {
			t.Fatal(err)
		}
		return res.EpochTime
	}
	e0, e1, e4, e5 := run(0), run(1), run(4), run(5)
	gainFirst := e0 - e1
	gainLast := e4 - e5
	if gainFirst <= 0 {
		t.Fatalf("first core gained nothing: %v -> %v", e0, e1)
	}
	if gainLast >= gainFirst {
		t.Fatalf("no diminishing returns: 0→1 gains %v, 4→5 gains %v", gainFirst, gainLast)
	}
}

func TestStorageSlowdownHurts(t *testing.T) {
	tr := openImages(t, 1000)
	fast := env(2)
	slow := env(2)
	slow.StorageSlowdown = 3
	plan, err := policy.ResizeOff{}.Plan(tr, fast)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(Config{Trace: tr, Plan: plan, Env: fast})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(Config{Trace: tr, Plan: plan, Env: slow})
	if err != nil {
		t.Fatal(err)
	}
	if rs.StorageBusy <= rf.StorageBusy {
		t.Fatalf("slowdown did not stretch storage busy: %v vs %v", rs.StorageBusy, rf.StorageBusy)
	}
	if rs.EpochTime < rf.EpochTime {
		t.Fatalf("slower storage produced faster epoch: %v vs %v", rs.EpochTime, rf.EpochTime)
	}
}

func TestPartialLastBatch(t *testing.T) {
	tr := openImages(t, 130) // 130 samples, batch 64 → 3 batches (2 full + 1 partial)
	plan := noOffPlan(t, tr)
	res, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 3 {
		t.Fatalf("batches = %d, want 3", res.Batches)
	}
	wantGPU := gpu.AlexNet.BatchTime(64)*2 + gpu.AlexNet.BatchTime(2)
	if res.GPUBusy != wantGPU {
		t.Fatalf("GPU busy %v, want %v", res.GPUBusy, wantGPU)
	}
}

// TestShuffleDeterministicAndConservative: shuffling changes scheduling
// micro-structure but conserves traffic exactly, and the same seed replays
// identically.
func TestShuffleDeterministicAndConservative(t *testing.T) {
	tr := openImages(t, 800)
	plan := noOffPlan(t, tr)
	base, err := Run(Config{Trace: tr, Plan: plan, Env: env(0)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), ShuffleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), ShuffleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same shuffle seed produced different results")
	}
	if a.TrafficBytes != base.TrafficBytes {
		t.Fatalf("shuffle changed traffic: %d vs %d", a.TrafficBytes, base.TrafficBytes)
	}
	if a.ComputeBusy != base.ComputeBusy || a.GPUBusy != base.GPUBusy {
		t.Fatal("shuffle changed total work")
	}
	// Epoch time may differ slightly but stays in the same regime.
	ratio := float64(a.EpochTime) / float64(base.EpochTime)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("shuffle moved epoch time by %.2fx", ratio)
	}
}

// TestMultiGPUScalesComputeBoundEpoch: for a GPU-bound workload, adding
// GPUs cuts the epoch roughly linearly; for an I/O-bound one it does
// nothing (the link is shared).
func TestMultiGPUScalesComputeBoundEpoch(t *testing.T) {
	tr := openImages(t, 2000)
	plan := noOffPlan(t, tr)

	gpuBound := env(0)
	gpuBound.GPU = gpu.ResNet50
	gpuBound.Bandwidth = netsim.Mbps(50000)
	one, err := Run(Config{Trace: tr, Plan: plan, Env: gpuBound})
	if err != nil {
		t.Fatal(err)
	}
	gpuBound.GPUCount = 4
	four, err := Run(Config{Trace: tr, Plan: plan, Env: gpuBound})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.EpochTime) / float64(four.EpochTime)
	if speedup < 3.0 || speedup > 4.2 {
		t.Fatalf("4-GPU speedup %.2fx on a compute-bound epoch", speedup)
	}
	if four.GPUUtilization > 1 {
		t.Fatalf("multi-GPU utilization %v > 1", four.GPUUtilization)
	}

	ioBound := env(0)
	ioBound.GPUCount = 4
	io4, err := Run(Config{Trace: tr, Plan: plan, Env: ioBound})
	if err != nil {
		t.Fatal(err)
	}
	ioBound.GPUCount = 1
	io1, err := Run(Config{Trace: tr, Plan: plan, Env: ioBound})
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(io1.EpochTime-io4.EpochTime) / float64(io1.EpochTime)
	if diff > 0.05 {
		t.Fatalf("extra GPUs changed an I/O-bound epoch by %.1f%%", diff*100)
	}
}

// TestRTTHiddenByPrefetch: with deep prefetch a multi-millisecond RTT
// barely moves an I/O-bound epoch; with no overlap (window == batch == 1)
// it dominates.
func TestRTTHiddenByPrefetch(t *testing.T) {
	tr := openImages(t, 500)
	plan := noOffPlan(t, tr)
	base, err := Run(Config{Trace: tr, Plan: plan, Env: env(0)})
	if err != nil {
		t.Fatal(err)
	}
	withRTT, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), RTT: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(withRTT.EpochTime) / float64(base.EpochTime)
	if slowdown > 1.05 {
		t.Fatalf("deep prefetch failed to hide RTT: %.3fx slowdown", slowdown)
	}
	serial, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), RTT: 5 * time.Millisecond,
		BatchSize: 1, PrefetchWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Serial fetching pays the RTT per sample: ≥ 500 × 5 ms on top.
	if serial.EpochTime < base.EpochTime+2*time.Second {
		t.Fatalf("serial fetch hid the RTT: %v vs %v", serial.EpochTime, base.EpochTime)
	}
}

func TestPrefetchWindowLimitsOverlap(t *testing.T) {
	// A tiny prefetch window should lengthen the epoch versus a deep one.
	tr := openImages(t, 1000)
	plan := noOffPlan(t, tr)
	deep, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), BatchSize: 32, PrefetchWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := Run(Config{Trace: tr, Plan: plan, Env: env(0), BatchSize: 32, PrefetchWindow: 32})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.EpochTime < deep.EpochTime {
		t.Fatalf("shallow prefetch %v faster than deep %v", shallow.EpochTime, deep.EpochTime)
	}
}

// Pool's tournament tree against the definition, a linear scan: every job
// starts on the server that falls idle first, no earlier than it arrives, the
// lowest-numbered one on a tie; a job with a home stays there when home is
// among the earliest-free, and a pinned job queues on its home.
func TestPoolMatchesEarliestFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, k := range []int{1, 2, 3, 7, 48} {
		p := NewPool(k)
		free := make([]time.Duration, k)
		busy := make([]time.Duration, k)
		var total, last time.Duration
		for i := 0; i < 2000; i++ {
			// Arrivals wander backwards as well as forwards, as link
			// completions from different shards do; whole milliseconds
			// make free times tie.
			arrival := time.Duration(i*10/k+rng.IntN(5)) * time.Millisecond
			dur := time.Duration(rng.IntN(20)) * time.Millisecond
			home, mode := rng.IntN(k), rng.IntN(3) // mode: 0 no home, 1 home, 2 pinned
			s := 0
			for j := range free {
				if free[j] < free[s] {
					s = j
				}
			}
			if mode == 2 || mode == 1 && free[home] == free[s] {
				s = home
			}
			want := max(free[s], arrival) + dur
			free[s] = want
			busy[s] += dur
			total += dur
			last = max(last, want)

			got, server := time.Duration(0), s
			if mode == 0 {
				got = p.Schedule(arrival, dur)
			} else {
				got, server = p.place(home, mode == 2, arrival, dur)
			}
			if got != want || server != s {
				t.Fatalf("k=%d job %d (mode %d, home %d): server %d completes at %v, want server %d at %v",
					k, i, mode, home, server, got, s, want)
			}
		}
		if !slices.Equal(p.busy, busy) || p.total != total || p.last != last {
			t.Fatalf("k=%d: busy %v (total %v) last %v, want %v (%v) %v", k, p.busy, p.total, p.last, busy, total, last)
		}
	}
}
