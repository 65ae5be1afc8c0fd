package policy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
)

// paperEnv mirrors the paper's evaluation setup: 500 Mbps link, 48 compute
// cores, AlexNet.
func paperEnv(storageCores int) Env {
	return Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    storageCores,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
}

func openImages(t testing.TB, n int) *dataset.Trace {
	t.Helper()
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func imageNet(t testing.TB, n int) *dataset.Trace {
	t.Helper()
	tr, err := dataset.GenerateTrace(dataset.ImageNet11G().ScaledTo(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUniformPlanValidation(t *testing.T) {
	if _, err := NewUniformPlan("x", 0, 0); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := NewUniformPlan("x", 5, -1); err == nil {
		t.Fatal("accepted negative split")
	}
	if _, err := NewUniformPlan("x", 5, dataset.OpCount+1); err == nil {
		t.Fatal("accepted oversized split")
	}
	p, err := NewUniformPlan("x", 5, 2)
	if err != nil || p.N() != 5 || p.Split(3) != 2 || p.OffloadedCount() != 5 {
		t.Fatalf("plan: %+v, %v", p, err)
	}
	if p.Split(-1) != 0 || p.Split(99) != 0 {
		t.Fatal("out-of-range Split should return 0")
	}
}

func TestPlanSplitHistogramAndString(t *testing.T) {
	p := &Plan{Name: "mix", Splits: []uint8{0, 0, 2, 2, 2, 5}}
	h := p.SplitHistogram()
	if h[0] != 2 || h[2] != 3 || h[5] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	s := p.String()
	for _, want := range []string{"mix", "4/6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestPlanAccountingAgainstTrace(t *testing.T) {
	tr := openImages(t, 300)
	noOff, _ := NewUniformPlan("no", tr.N(), 0)
	allOff, _ := NewUniformPlan("all", tr.N(), dataset.OpCount)
	// One compute core and one storage core: T_CC and T_CS are the summed
	// single-core CPU times themselves.
	env := paperEnv(1)
	env.ComputeCores = 1

	traffic, err := noOff.Traffic(tr)
	if err != nil || traffic != tr.TotalRawBytes() {
		t.Fatalf("no-off traffic %d vs %d, %v", traffic, tr.TotalRawBytes(), err)
	}
	if storageCPU(noOff, tr) != 0 {
		t.Fatal("no-off has storage CPU")
	}
	m, err := ModelFor(tr, noOff, env)
	if err != nil || m.TCC != tr.TotalPreprocessCPU() || m.TCS != 0 {
		t.Fatalf("no-off model %+v, want T_CC %v and no T_CS (%v)", m, tr.TotalPreprocessCPU(), err)
	}

	if storageCPU(allOff, tr) != tr.TotalPreprocessCPU() {
		t.Fatal("all-off storage CPU != total")
	}
	m, err = ModelFor(tr, allOff, env)
	if err != nil || m.TCC != 0 || m.TCS != tr.TotalPreprocessCPU() {
		t.Fatalf("all-off model %+v, want no T_CC and T_CS %v (%v)", m, tr.TotalPreprocessCPU(), err)
	}
	// Plan/trace size mismatch is rejected.
	short, _ := NewUniformPlan("s", 10, 0)
	if _, err := short.Traffic(tr); err == nil {
		t.Fatal("mismatched plan accepted")
	}
	if _, err := ModelFor(tr, short, env); err == nil {
		t.Fatal("mismatched plan modeled")
	}
}

func TestEnvValidate(t *testing.T) {
	good := paperEnv(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Env{
		{Bandwidth: 0, ComputeCores: 1, StorageSlowdown: 1, GPU: gpu.AlexNet},
		{Bandwidth: 1, ComputeCores: 0, StorageSlowdown: 1, GPU: gpu.AlexNet},
		{Bandwidth: 1, ComputeCores: 1, StorageCores: -1, StorageSlowdown: 1, GPU: gpu.AlexNet},
		{Bandwidth: 1, ComputeCores: 1, StorageSlowdown: 0.5, GPU: gpu.AlexNet},
		{Bandwidth: 1, ComputeCores: 1, StorageSlowdown: 1},
		{Bandwidth: math.NaN(), ComputeCores: 1, StorageSlowdown: 1, GPU: gpu.AlexNet},
		{Bandwidth: math.Inf(1), ComputeCores: 1, StorageSlowdown: 1, GPU: gpu.AlexNet},
		{Bandwidth: 1, ComputeCores: 1, StorageSlowdown: math.NaN(), GPU: gpu.AlexNet},
		{Bandwidth: 1, ComputeCores: 1, StorageSlowdown: math.Inf(1), GPU: gpu.AlexNet},
	}
	for i, e := range cases {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, e)
		}
	}
}

func TestEpochModelPredictedAndDominant(t *testing.T) {
	m := EpochModel{TG: 1, TCC: 2, TCS: 3, TNet: 4}
	if m.Predicted() != 4 || m.Dominant() != "TNet" {
		t.Fatalf("model %+v: predicted=%v dominant=%s", m, m.Predicted(), m.Dominant())
	}
	m = EpochModel{TG: 9, TCC: 2, TCS: 3, TNet: 4}
	if m.Predicted() != 9 || m.Dominant() != "TG" {
		t.Fatalf("model %+v misreported", m)
	}
	if tie := (EpochModel{TG: 4, TNet: 4}); tie.Dominant() != "TG" {
		t.Fatal("a tie should not name TNet")
	}
}

// TestTermsNetDominantIsStrict: the stop rule holds per shard and only
// while that shard's T_Net strictly exceeds every other term.
func TestTermsNetDominantIsStrict(t *testing.T) {
	ts := &terms{tg: 1, tcc: 2, tnet: []time.Duration{4, 3}, tcs: []time.Duration{3, 3}}
	if !ts.netDominant(0) || ts.netDominant(1) || !ts.anyDominant() {
		t.Fatal("shard 0 leads every term, shard 1 only ties its T_CS")
	}
	if m := ts.model(); m != (EpochModel{TG: 1, TCC: 2, TCS: 3, TNet: 4}) {
		t.Fatalf("model %+v, want the per-shard maxima", m)
	}
	ts.tg = 4
	if ts.netDominant(0) || ts.anyDominant() {
		t.Fatal("a tie with T_G is not dominance")
	}
}

func TestModelForIOBoundBaseline(t *testing.T) {
	tr := openImages(t, 2000)
	noOff, _ := NewUniformPlan("no", tr.N(), 0)
	m, err := ModelFor(tr, noOff, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dominant() != "TNet" {
		t.Fatalf("paper setup should be I/O-bound: %+v", m)
	}
	if m.TCS != 0 {
		t.Fatal("no-off model has storage CPU time")
	}
	// Sanity of magnitudes: ~300 KB × 2000 at 62.5 MB/s ≈ 9.6 s.
	if m.TNet < 7*time.Second || m.TNet > 13*time.Second {
		t.Fatalf("TNet = %v, want ≈9.6 s", m.TNet)
	}
}

func TestModelForRejectsOffloadWithoutCores(t *testing.T) {
	tr := openImages(t, 50)
	all, _ := NewUniformPlan("all", tr.N(), dataset.OpCount)
	if _, err := ModelFor(tr, all, paperEnv(0)); err == nil {
		t.Fatal("offloading plan with 0 storage cores accepted")
	}
}

func TestNoOffPolicy(t *testing.T) {
	tr := openImages(t, 100)
	p, err := NoOff{}.Plan(tr, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	if p.OffloadedCount() != 0 {
		t.Fatal("No-Off offloaded samples")
	}
}

func TestAllOffPolicy(t *testing.T) {
	tr := openImages(t, 100)
	p, err := AllOff{}.Plan(tr, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	if p.OffloadedCount() != tr.N() {
		t.Fatal("All-Off did not offload everything")
	}
	for i := 0; i < tr.N(); i++ {
		if p.Split(i) != dataset.OpCount {
			t.Fatalf("sample %d split %d", i, p.Split(i))
		}
	}
	// Without storage cores it degrades to no offloading.
	p, err = AllOff{}.Plan(tr, paperEnv(0))
	if err != nil || p.OffloadedCount() != 0 {
		t.Fatalf("All-Off with 0 cores: %d offloaded, %v", p.OffloadedCount(), err)
	}
}

func TestResizeOffPolicy(t *testing.T) {
	tr := openImages(t, 100)
	p, err := ResizeOff{}.Plan(tr, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.N(); i++ {
		if p.Split(i) != resizeSplit {
			t.Fatalf("sample %d split %d", i, p.Split(i))
		}
	}
}

// TestAllOffInflatesTraffic reproduces the All-Off column of Figure 3:
// ~2× traffic on OpenImages, ~5× on ImageNet.
func TestAllOffInflatesTraffic(t *testing.T) {
	for _, tc := range []struct {
		trace  *dataset.Trace
		lo, hi float64
	}{
		{openImages(t, 3000), 1.7, 2.3},
		{imageNet(t, 3000), 4.4, 5.6},
	} {
		all, _ := NewUniformPlan("all", tc.trace.N(), dataset.OpCount)
		traffic, err := all.Traffic(tc.trace)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(traffic) / float64(tc.trace.TotalRawBytes())
		if ratio < tc.lo || ratio > tc.hi {
			t.Fatalf("%s All-Off traffic ratio %.2f, want [%.1f, %.1f]",
				tc.trace.Name, ratio, tc.lo, tc.hi)
		}
	}
}

// TestResizeOffTrafficSplit reproduces the Resize-Off rows of Figure 3:
// ~0.5× on OpenImages (a 2× reduction) but ~1.2-1.3× on ImageNet (an
// increase).
func TestResizeOffTrafficSplit(t *testing.T) {
	oi := openImages(t, 3000)
	rp, _ := NewUniformPlan("r", oi.N(), resizeSplit)
	traffic, _ := rp.Traffic(oi)
	ratio := float64(traffic) / float64(oi.TotalRawBytes())
	if ratio < 0.40 || ratio > 0.60 {
		t.Fatalf("OpenImages Resize-Off ratio %.2f, want ~0.5", ratio)
	}

	in := imageNet(t, 3000)
	rp, _ = NewUniformPlan("r", in.N(), resizeSplit)
	traffic, _ = rp.Traffic(in)
	ratio = float64(traffic) / float64(in.TotalRawBytes())
	if ratio < 1.10 || ratio > 1.45 {
		t.Fatalf("ImageNet Resize-Off ratio %.2f, want ~1.25", ratio)
	}
}

// TestFastFlowDeclines reproduces the paper's FastFlow observation: its
// all-or-nothing cost model predicts offloading would slow training, so it
// keeps everything local in both evaluated setups.
func TestFastFlowDeclines(t *testing.T) {
	for _, tr := range []*dataset.Trace{openImages(t, 2000), imageNet(t, 2000)} {
		p, err := FastFlow{}.Plan(tr, paperEnv(48))
		if err != nil {
			t.Fatal(err)
		}
		if p.OffloadedCount() != 0 {
			t.Fatalf("FastFlow offloaded %d samples on %s", p.OffloadedCount(), tr.Name)
		}
	}
}

// TestFastFlowAcceptsWhenProfitable: on a synthetic CPU-bound trace where
// full offload genuinely helps, FastFlow must offload — the rule is a cost
// model, not a constant "no".
func TestFastFlowAcceptsWhenProfitable(t *testing.T) {
	// Records whose tensor stage is *smaller* than raw (pathological but
	// legal) with heavy local CPU cost: offloading all ops reduces both
	// traffic and compute time.
	tr := trace50MBRaw(t)
	env := Env{Bandwidth: 1e6, ComputeCores: 1, StorageCores: 32, StorageSlowdown: 1, GPU: gpu.AlexNet}
	p, err := FastFlow{}.Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if p.OffloadedCount() != tr.N() {
		t.Fatalf("FastFlow declined a profitable offload (offloaded %d)", p.OffloadedCount())
	}
}

// trace50MBRaw builds a trace where every stage shrinks and preprocessing
// is expensive.
func trace50MBRaw(t testing.TB) *dataset.Trace {
	t.Helper()
	recs := make([]dataset.Record, 64)
	for i := range recs {
		recs[i] = dataset.Record{
			ID:         uint32(i),
			RawSize:    50 << 20,
			Width:      1000,
			Height:     1000,
			StageSizes: [dataset.StageCount]int64{50 << 20, 3 << 20, 150537, 150537, 602134, 602134},
			OpTimes: [dataset.OpCount]time.Duration{
				50 * time.Millisecond, 10 * time.Millisecond, time.Millisecond,
				2 * time.Millisecond, time.Millisecond,
			},
		}
	}
	return &dataset.Trace{Name: "pathological", Records: recs}
}

func TestCandidates(t *testing.T) {
	tr := openImages(t, 1000)
	cands := Candidates(tr)
	if len(cands) != tr.N() {
		t.Fatalf("got %d candidates", len(cands))
	}
	zero, positive := 0, 0
	for i, c := range cands {
		if c.ID != i {
			t.Fatalf("candidate %d has ID %d", i, c.ID)
		}
		if c.Saving > 0 {
			positive++
			if c.Split == 0 || c.Efficiency <= 0 {
				t.Fatalf("beneficial candidate %d: split=%d eff=%v", i, c.Split, c.Efficiency)
			}
			if c.Efficiency != math.Inf(1) &&
				math.Abs(c.Efficiency-float64(c.Saving)/c.PrefixCPU.Seconds()) > 1 {
				t.Fatalf("candidate %d efficiency inconsistent", i)
			}
		} else {
			zero++
			if c.Split != 0 || c.Efficiency != 0 {
				t.Fatalf("non-beneficial candidate %d: %+v", i, c)
			}
		}
	}
	frac := float64(positive) / float64(len(cands))
	if frac < 0.70 || frac > 0.82 {
		t.Fatalf("beneficial fraction %.2f, want ~0.76 (Figure 1c)", frac)
	}
	_ = zero
}

// TestSophonAmpleCores reproduces the ample-CPU scenario of Figure 3 on
// OpenImages: ~2.2× traffic reduction, better than Resize-Off, epoch time
// strictly better than No-Off.
func TestSophonAmpleCores(t *testing.T) {
	tr := openImages(t, 4000)
	env := paperEnv(48)
	plan, err := NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	traffic, _ := plan.Traffic(tr)
	reduction := float64(tr.TotalRawBytes()) / float64(traffic)
	if reduction < 1.9 || reduction > 2.5 {
		t.Fatalf("SOPHON traffic reduction %.2fx, want ~2.2x", reduction)
	}

	resize, _ := ResizeOff{}.Plan(tr, env)
	rm, _ := ModelFor(tr, resize, env)
	sm, _ := ModelFor(tr, plan, env)
	nm, _ := ModelFor(tr, mustPlan(t, NoOff{}, tr, env), env)
	if sm.Predicted() >= nm.Predicted() {
		t.Fatalf("SOPHON (%v) not faster than No-Off (%v)", sm.Predicted(), nm.Predicted())
	}
	if sm.Predicted() > rm.Predicted() {
		t.Fatalf("SOPHON (%v) slower than Resize-Off (%v) with ample cores", sm.Predicted(), rm.Predicted())
	}
}

// TestSophonImageNet reproduces the ImageNet half of Figure 3: SOPHON still
// reduces traffic (~1.2×) where Resize-Off increases it.
func TestSophonImageNet(t *testing.T) {
	tr := imageNet(t, 4000)
	env := paperEnv(48)
	plan, err := NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	traffic, _ := plan.Traffic(tr)
	reduction := float64(tr.TotalRawBytes()) / float64(traffic)
	if reduction < 1.1 || reduction > 1.5 {
		t.Fatalf("SOPHON ImageNet reduction %.2fx, want ~1.2-1.3x", reduction)
	}
}

// TestSophonRespectsWeakStorage: with one storage core, SOPHON offloads far
// fewer samples than with 48, and T_CS never strictly exceeds every other
// metric (the stop condition).
func TestSophonRespectsWeakStorage(t *testing.T) {
	tr := openImages(t, 4000)
	rich, err := NewSophon().Plan(tr, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	poor, err := NewSophon().Plan(tr, paperEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	if poor.OffloadedCount() >= rich.OffloadedCount() {
		t.Fatalf("1-core plan offloads %d ≥ 48-core plan %d",
			poor.OffloadedCount(), rich.OffloadedCount())
	}
	pm, err := ModelFor(tr, poor, paperEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	// The greedy loop stops as soon as TNet is no longer strictly largest;
	// TCS can overshoot by at most one sample's increment.
	if pm.TCS > pm.TNet*2 {
		t.Fatalf("TCS %v runs far beyond TNet %v", pm.TCS, pm.TNet)
	}
	// And the plan must still beat No-Off.
	nm, _ := ModelFor(tr, mustPlan(t, NoOff{}, tr, paperEnv(1)), paperEnv(1))
	if pm.Predicted() >= nm.Predicted() {
		t.Fatalf("SOPHON@1core (%v) not faster than No-Off (%v)", pm.Predicted(), nm.Predicted())
	}
}

// TestSophonMonotonicity is invariant #3: selected samples form an
// efficiency-prefix — no unselected candidate has strictly higher
// efficiency than a selected one (modulo exact ties).
func TestSophonMonotonicity(t *testing.T) {
	tr := openImages(t, 2000)
	plan, err := NewSophon().Plan(tr, paperEnv(2))
	if err != nil {
		t.Fatal(err)
	}
	cands := Candidates(tr)
	minSelected := math.Inf(1)
	for _, c := range cands {
		if plan.Split(c.ID) > 0 && c.Efficiency < minSelected {
			minSelected = c.Efficiency
		}
	}
	for _, c := range cands {
		if plan.Split(c.ID) == 0 && c.Saving > 0 && c.Efficiency > minSelected+1e-9 {
			t.Fatalf("unselected candidate %d (eff %.0f) beats selected floor %.0f",
				c.ID, c.Efficiency, minSelected)
		}
	}
	// Selected samples always ship their min stage and never lose bytes.
	for _, c := range cands {
		if s := plan.Split(c.ID); s > 0 {
			if s != c.Split {
				t.Fatalf("sample %d split %d != min stage %d", c.ID, s, c.Split)
			}
			if tr.Records[c.ID].Saving(s) <= 0 {
				t.Fatalf("sample %d offloaded with non-positive saving", c.ID)
			}
		}
	}
}

func TestSophonZeroStorageCoresFallsBack(t *testing.T) {
	tr := openImages(t, 200)
	plan, err := NewSophon().Plan(tr, paperEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	if plan.OffloadedCount() != 0 {
		t.Fatal("SOPHON offloaded with 0 storage cores")
	}
}

func TestSophonNotIOBoundDoesNothing(t *testing.T) {
	tr := openImages(t, 500)
	env := paperEnv(48)
	env.Bandwidth = netsim.Mbps(100000) // infinitely fast link → GPU-bound
	plan, err := NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OffloadedCount() != 0 {
		t.Fatal("SOPHON offloaded a non-I/O-bound workload")
	}
}

// TestSophonGuardNeverWorse: the guarded variant's predicted epoch is never
// worse than the unguarded one.
func TestSophonGuardNeverWorse(t *testing.T) {
	tr := openImages(t, 2000)
	for _, cores := range []int{1, 2, 4, 48} {
		env := paperEnv(cores)
		base, err := NewSophon().Plan(tr, env)
		if err != nil {
			t.Fatal(err)
		}
		guarded, err := (&Sophon{StepGuard: true}).Plan(tr, env)
		if err != nil {
			t.Fatal(err)
		}
		bm, _ := ModelFor(tr, base, env)
		gm, _ := ModelFor(tr, guarded, env)
		if gm.Predicted() > bm.Predicted() {
			t.Fatalf("cores=%d: guarded %v worse than base %v", cores, gm.Predicted(), bm.Predicted())
		}
	}
}

// Property: for arbitrary storage core counts and bandwidths, SOPHON's plan
// never predicts a slower epoch than No-Off.
func TestSophonNeverWorseThanNoOffProperty(t *testing.T) {
	tr := openImages(t, 800)
	f := func(cores8 uint8, mbps16 uint16) bool {
		cores := int(cores8%16) + 1
		mbps := float64(mbps16%2000) + 50
		env := Env{
			Bandwidth:       netsim.Mbps(mbps),
			ComputeCores:    48,
			StorageCores:    cores,
			StorageSlowdown: 1,
			GPU:             gpu.AlexNet,
		}
		sp, err := NewSophon().Plan(tr, env)
		if err != nil {
			return false
		}
		np, err := NoOff{}.Plan(tr, env)
		if err != nil {
			return false
		}
		sm, err := ModelFor(tr, sp, env)
		if err != nil {
			return false
		}
		nm, err := ModelFor(tr, np, env)
		if err != nil {
			return false
		}
		// Allow one-sample overshoot slack (0.5%).
		return float64(sm.Predicted()) <= float64(nm.Predicted())*1.005
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilitiesTable(t *testing.T) {
	s := NewSophon()
	c := s.Capabilities()
	if c.OperationSelective != yes || c.DataPartial != yes || c.DataSelective != yes || c.NearStorage != yes {
		t.Fatalf("SOPHON capabilities: %+v", c)
	}
	if (FastFlow{}).Capabilities().DataSelective == yes {
		t.Fatal("FastFlow claims data-selectivity")
	}
	if len(All()) != 5 {
		t.Fatalf("All() has %d policies", len(All()))
	}
	if Capability(0).String() != "no" || Partial.String() != "partial" || yes.String() != "yes" {
		t.Fatal("capability strings")
	}
}

func mustPlan(t testing.TB, p Policy, tr *dataset.Trace, env Env) *Plan {
	t.Helper()
	plan, err := p.Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// storageCPU is the single-core CPU time of p's offloaded prefixes.
func storageCPU(p *Plan, tr *dataset.Trace) time.Duration {
	var sum time.Duration
	for i := range tr.Records {
		sum += tr.Records[i].PrefixTime(int(p.Splits[i]))
	}
	return sum
}
