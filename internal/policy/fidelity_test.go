package policy

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// testLadder is a 4-scan byte/quality ladder of the shape sophon-bench
// -fidelity calibrates from the live codec.
func testLadder() FidelityModel {
	return FidelityModel{
		Levels:   4,
		ByteFrac: []float64{0.20, 0.42, 0.68, 1},
		Quality:  []float64{0.86, 0.94, 0.98, 1},
	}
}

func defaultPass() *FidelityPass {
	return &FidelityPass{
		Model:            testLadder(),
		QualityFloor:     0.97,
		MeanQualityFloor: 0.98,
	}
}

func TestFidelityModelValidate(t *testing.T) {
	if err := testLadder().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FidelityModel{
		{Levels: 0},
		{Levels: 2, ByteFrac: []float64{0.5}, Quality: []float64{0.9, 1}},
		{Levels: 2, ByteFrac: []float64{0.5, 1}, Quality: []float64{1, 0.9}},       // not monotone
		{Levels: 2, ByteFrac: []float64{0.5, 0.9}, Quality: []float64{0.9, 1}},     // doesn't reach 1
		{Levels: 2, ByteFrac: []float64{0, 1}, Quality: []float64{0.9, 1}},         // zero fraction
		{Levels: 2, ByteFrac: []float64{0.5, 1}, Quality: []float64{1.1, 1}},       // above 1
		{Levels: 3, ByteFrac: []float64{0.9, 0.5, 1}, Quality: []float64{1, 1, 1}}, // not monotone
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, m)
		}
	}
}

// Under a constrained link, the fidelity pass must cut planned traffic
// beyond the best discrete plan while honoring the quality floors — the
// core claim of the progressive refactor.
func TestSophonFidelityPassReducesTraffic(t *testing.T) {
	tr := openImages(t, 400)
	env := paperEnv(4) // few storage cores: the discrete loop stalls on TCS
	env.Bandwidth = netsim.Mbps(200)

	discrete, err := NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := (&Sophon{Fidelity: defaultPass()}).Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if fid.ReducedCount() == 0 {
		t.Fatal("fidelity pass reduced no samples under a saturated link")
	}
	fm := testLadder()
	discTraffic, err := discrete.TrafficWith(tr, fm)
	if err != nil {
		t.Fatal(err)
	}
	fidTraffic, err := fid.TrafficWith(tr, fm)
	if err != nil {
		t.Fatal(err)
	}
	if fidTraffic >= discTraffic {
		t.Fatalf("fidelity plan ships %d bytes, discrete ships %d", fidTraffic, discTraffic)
	}
	if q := fid.MeanQuality(fm); q < 0.98 {
		t.Fatalf("mean quality %.4f below the configured floor 0.98", q)
	}
	for i := range fid.Fidelity {
		if fid.Fidelity[i] > 0 && fid.Splits[i] != 0 {
			t.Fatalf("sample %d has fidelity %d at split %d; fidelity only applies to raw containers",
				i, fid.Fidelity[i], fid.Splits[i])
		}
		if drop := fid.FidelityOf(i); drop > 0 && fm.qualityFor(drop) < 0.97 {
			t.Fatalf("sample %d dropped to quality %.3f, floor is 0.97", i, fm.qualityFor(drop))
		}
	}

	// Epoch model must improve (or hold) with the extra dimension. ModelFor
	// charges full-fidelity bytes; on one shard the link term is the
	// plan's fidelity-aware traffic over the bandwidth, and the storage
	// CPU term is the same (a prefix costs no CPU).
	if env.ShardCount() != 1 {
		t.Fatalf("%d shards: the link term below is the one-shard form", env.ShardCount())
	}
	dm, err := ModelFor(tr, discrete, env)
	if err != nil {
		t.Fatal(err)
	}
	fmod, err := ModelFor(tr, fid, env)
	if err != nil {
		t.Fatal(err)
	}
	fmod.TNet = time.Duration(float64(fidTraffic) / env.Bandwidth * float64(time.Second))
	if fmod.Predicted() > dm.Predicted() {
		t.Fatalf("fidelity plan predicts %v, discrete predicts %v", fmod.Predicted(), dm.Predicted())
	}
}

// With zero storage cores the discrete loop is disabled entirely, yet the
// progressive pass still applies — slicing needs no preprocessing CPU.
func TestSophonFidelityWithZeroStorageCores(t *testing.T) {
	tr := openImages(t, 300)
	env := paperEnv(0)
	env.Bandwidth = netsim.Mbps(150)
	plan, err := (&Sophon{Fidelity: defaultPass()}).Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OffloadedCount() != 0 {
		t.Fatal("offloaded with zero storage cores")
	}
	if plan.ReducedCount() == 0 {
		t.Fatal("no fidelity reduction despite a saturated link and zero storage cores")
	}
}

// A workload that is not network-bound must be left untouched at full
// fidelity, mirroring the discrete gate.
func TestSophonFidelityNotIOBound(t *testing.T) {
	tr := openImages(t, 120)
	env := paperEnv(8)
	env.Bandwidth = netsim.Mbps(100000)
	plan, err := (&Sophon{Fidelity: defaultPass()}).Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ReducedCount() > 0 {
		t.Fatal("reduced fidelity on a compute-bound workload")
	}
	if q := plan.MeanQuality(testLadder()); q != 1 {
		t.Fatalf("mean quality %.4f, want exactly 1", q)
	}
}

// The fidelity accounting variants must agree with the classic functions
// when the plan carries no fidelity dimension.
func TestFidelityAccountingBackwardCompatible(t *testing.T) {
	tr := openImages(t, 200)
	plan, err := NewSophon().Plan(tr, paperEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	fm := testLadder()
	classic, err := plan.Traffic(tr)
	if err != nil {
		t.Fatal(err)
	}
	with, err := plan.TrafficWith(tr, fm)
	if err != nil {
		t.Fatal(err)
	}
	if classic != with {
		t.Fatalf("TrafficWith %d != Traffic %d on a fidelity-free plan", with, classic)
	}
	if plan.FidelityOf(0) != 0 || plan.FidelityOf(-5) != 0 || plan.FidelityOf(10_000) != 0 {
		t.Fatal("FidelityOf must be 0 for missing/out-of-range entries")
	}
}

func TestFidelityPassValidate(t *testing.T) {
	good := defaultPass()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := FidelityPass{Model: testLadder(), QualityFloor: 1.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted quality floor above 1")
	}
	if _, err := (&Sophon{Fidelity: &FidelityPass{}}).Plan(openImages(t, 10), paperEnv(4)); err == nil {
		t.Fatal("accepted zero-valued fidelity pass (invalid model)")
	}
}
