package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/profiler"
)

func paperEnv(storageCores int) policy.Env {
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
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(n), 11)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDecideValidation(t *testing.T) {
	f := New()
	if _, err := f.Decide(nil, paperEnv(4)); err == nil {
		t.Fatal("accepted nil trace")
	}
	if _, err := f.Decide(&dataset.Trace{}, paperEnv(4)); err == nil {
		t.Fatal("accepted empty trace")
	}
	tr := openImages(t, 50)
	bad := paperEnv(4)
	bad.ComputeCores = 0
	if _, err := f.Decide(tr, bad); err == nil {
		t.Fatal("accepted bad env")
	}
}

// TestDecideStage1Validates: stage 1 is derived from the trace and the
// link, so an empty trace or a zero-bandwidth link is refused before any
// probe is read.
func TestDecideStage1Validates(t *testing.T) {
	f := New()
	if _, err := f.Decide(&dataset.Trace{}, paperEnv(4)); err == nil {
		t.Fatal("accepted empty trace")
	}
	tr := openImages(t, 10)
	bad := paperEnv(4)
	bad.Bandwidth = 0
	if _, err := f.Decide(tr, bad); err == nil {
		t.Fatal("accepted zero bandwidth")
	}
}

// TestDecideStage1PaperSetupIsIOBound: the paper's setup (500 Mbps, 48
// compute cores, AlexNet) reads I/O-bound, at about 62.5 MB/s over ~300 KB
// samples ≈ 208 samples/s.
func TestDecideStage1PaperSetupIsIOBound(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New().Decide(tr, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Stage1.IOBound() {
		t.Fatalf("paper setup not I/O bound: %+v", d.Stage1)
	}
	if d.Stage1.IOThroughput < 150 || d.Stage1.IOThroughput > 280 {
		t.Fatalf("IO throughput %v, want ≈208", d.Stage1.IOThroughput)
	}
}

// TestDecideStage1BottleneckShifts: on a fat link, one compute core makes
// stage 1 read CPU-bound and ResNet50 makes it read GPU-bound.
func TestDecideStage1BottleneckShifts(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(1000), 3)
	if err != nil {
		t.Fatal(err)
	}
	cpuEnv := paperEnv(48)
	cpuEnv.ComputeCores = 1
	cpuEnv.Bandwidth = netsim.Mbps(50000)
	d, err := New().Decide(tr, cpuEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stage1.Bottleneck().String(); got != "cpu-bound" {
		t.Fatalf("1-core fat-link setup: %s", got)
	}

	gpuEnv := paperEnv(48)
	gpuEnv.Bandwidth = netsim.Mbps(50000)
	gpuEnv.GPU = gpu.ResNet50
	d, err = New().Decide(tr, gpuEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stage1.Bottleneck().String(); got != "gpu-bound" {
		t.Fatalf("ResNet50 fat-link setup: %s", got)
	}
}

// TestDecideStage1ReadsEveryShardsLink: Env.Bandwidth is a per-shard link,
// so stage 1's I/O rate grows with the shard count, and at 32 shards the
// decision's stage 1 agrees with its own baseline that the GPU binds. A
// stage 1 priced over one link for the whole tier reads 207.6 samples/s and
// io-bound at every shard count.
func TestDecideStage1ReadsEveryShardsLink(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(4000), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		shards     int
		io         string
		bottleneck string
		dominant   string
	}{
		{1, "207.6", "io-bound", "TNet"},
		{4, "807.7", "io-bound", "TNet"},
		{32, "5706", "gpu-bound", "TG"},
	} {
		env := paperEnv(4)
		env.Shards = c.shards
		d, err := New().Decide(tr, env)
		if err != nil {
			t.Fatal(err)
		}
		io := fmt.Sprintf("%.1f", d.Stage1.IOThroughput)
		if c.shards == 32 {
			io = fmt.Sprintf("%.0f", d.Stage1.IOThroughput)
		}
		if io != c.io {
			t.Errorf("shards=%d: stage-1 I/O %s samples/s, want %s", c.shards, io, c.io)
		}
		if got := d.Stage1.Bottleneck().String(); got != c.bottleneck {
			t.Errorf("shards=%d: stage 1 reads %s, want %s", c.shards, got, c.bottleneck)
		}
		if got := d.Baseline.Dominant(); got != c.dominant {
			t.Errorf("shards=%d: baseline dominated by %s, want %s", c.shards, got, c.dominant)
		}
		if d.Activated != (c.dominant == "TNet") {
			t.Errorf("shards=%d: activated %v with %s dominant", c.shards, d.Activated, c.dominant)
		}
	}
}

func TestDecideActivatesOnIOBoundWorkload(t *testing.T) {
	tr := openImages(t, 2000)
	d, err := New().Decide(tr, paperEnv(48))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Stage1.IOBound() {
		t.Fatalf("stage 1 verdict: %+v", d.Stage1)
	}
	if !d.Activated || d.Plan.OffloadedCount() == 0 {
		t.Fatal("framework did not activate offloading")
	}
	if d.Planned.Predicted() >= d.Baseline.Predicted() {
		t.Fatalf("planned %v not faster than baseline %v", d.Planned.Predicted(), d.Baseline.Predicted())
	}
	if s := d.PredictedSpeedup(); s < 1.5 || s > 2.6 {
		t.Fatalf("predicted speedup %.2f, want ~2x on OpenImages", s)
	}
}

func TestDecideStaysOffWhenGPUBound(t *testing.T) {
	tr := openImages(t, 500)
	env := paperEnv(48)
	env.GPU = gpu.ResNet50
	env.Bandwidth = netsim.Mbps(50000)
	d, err := New().Decide(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	if d.Activated || d.Plan.OffloadedCount() != 0 {
		t.Fatal("activated on a GPU-bound workload")
	}
	if d.PredictedSpeedup() != 1 {
		t.Fatalf("speedup %v for inactive decision", d.PredictedSpeedup())
	}
}

func TestDecideStaysOffWithoutStorageCores(t *testing.T) {
	tr := openImages(t, 500)
	d, err := New().Decide(tr, paperEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Activated {
		t.Fatal("activated with 0 storage cores")
	}
}

func TestDecideWithMeasuredStage1Override(t *testing.T) {
	tr := openImages(t, 500)
	f := New()
	// Measured probes say CPU-bound even though the analytic model says
	// I/O-bound: the measured verdict wins and offloading deactivates.
	measured := profiler.Stage1Result{GPUThroughput: 900, IOThroughput: 800, CPUThroughput: 100}
	d, err := f.DecideWithStage1(tr, paperEnv(48), measured)
	if err != nil {
		t.Fatal(err)
	}
	if d.Activated || d.Plan.OffloadedCount() != 0 {
		t.Fatal("measured CPU-bound verdict did not deactivate offloading")
	}
	if d.Stage1 != measured {
		t.Fatal("decision does not carry the measured stage-1 result")
	}

	// Measured I/O-bound verdict keeps the plan.
	ioBound := profiler.Stage1Result{GPUThroughput: 3000, IOThroughput: 100, CPUThroughput: 900}
	d, err = f.DecideWithStage1(tr, paperEnv(48), ioBound)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Activated {
		t.Fatal("measured I/O-bound verdict deactivated offloading")
	}
}

func TestDecideHonorsCustomEngine(t *testing.T) {
	tr := openImages(t, 800)
	guarded := &Framework{Engine: &policy.Sophon{StepGuard: true}}
	d, err := guarded.Decide(tr, paperEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Name != "SOPHON+guard" {
		t.Fatalf("plan name %q", d.Plan.Name)
	}
	base, err := New().Decide(tr, paperEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Planned.Predicted() > base.Planned.Predicted() {
		t.Fatalf("guarded engine (%v) worse than base (%v)", d.Planned.Predicted(), base.Planned.Predicted())
	}
}
