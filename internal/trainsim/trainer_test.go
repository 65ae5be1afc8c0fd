package trainsim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/compressor"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// harness bundles a running server and a trainer config against it.
type harness struct {
	listener *netsim.PipeListener
	server   *storage.Server
	pipe     *pipeline.Pipeline
	n        int
}

func newImageSet(t testing.TB, n int) *dataset.ImageSet {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "live", N: n, Seed: 77, MinDim: 48, MaxDim: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func newHarness(t testing.TB, n, serverCores int) *harness {
	t.Helper()
	store, err := storage.FromImageSet(newImageSet(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return newHarnessOver(t, store, serverCores)
}

// newHarnessOver serves an already materialized store.
func newHarnessOver(t testing.TB, store *storage.Store, serverCores int) *harness {
	t.Helper()
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: 64, FlipP: -1})
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p, Cores: serverCores})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return &harness{listener: l, server: srv, pipe: p, n: store.N()}
}

func (h *harness) config() Config {
	return Config{
		DialClient: func() (storage.Fetcher, error) {
			conn, err := h.listener.Dial()
			if err != nil {
				return nil, err
			}
			return storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: 7})
		},
		Workers:   3,
		Pipeline:  h.pipe,
		GPU:       gpu.AlexNet,
		BatchSize: 8,
		JobID:     7,
		Shuffle:   true,
	}
}

func TestNewValidatesConfig(t *testing.T) {
	h := newHarness(t, 4, 1)
	good := h.config()

	bad := good
	bad.DialClient = nil
	if _, err := New(bad); err == nil {
		t.Fatal("accepted nil dialer")
	}
	bad = good
	bad.Pipeline = nil
	if _, err := New(bad); err == nil {
		t.Fatal("accepted nil pipeline")
	}
	bad = good
	bad.GPU = gpu.Model{}
	if _, err := New(bad); err == nil {
		t.Fatal("accepted invalid GPU")
	}
	bad = good
	bad.Workers = -1
	if _, err := New(bad); err == nil {
		t.Fatal("accepted negative workers")
	}
	bad = good
	bad.BatchSize = -2
	if _, err := New(bad); err == nil {
		t.Fatal("accepted negative batch")
	}
	bad = good
	bad.DialClient = func() (storage.Fetcher, error) { return nil, errors.New("refused") }
	if _, err := New(bad); err == nil {
		t.Fatal("accepted failing dialer")
	}
}

func TestRunEpochNoOffload(t *testing.T) {
	h := newHarness(t, 20, 0)
	tr := newTrainer(t, h.config())
	if tr.N() != 20 {
		t.Fatalf("N = %d", tr.N())
	}
	report, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Samples != 20 {
		t.Fatalf("trained %d samples", report.Samples)
	}
	if report.Batches != 3 { // 20 samples at batch 8 → 8+8+4
		t.Fatalf("batches = %d", report.Batches)
	}
	if report.Offloaded != 0 {
		t.Fatalf("offloaded = %d with nil plan", report.Offloaded)
	}
	if report.BytesFetched == 0 || report.Duration == 0 || report.GPUBusy == 0 {
		t.Fatalf("empty accounting: %+v", report)
	}
	if report.GPUUtilization <= 0 || report.GPUUtilization > 1 {
		t.Fatalf("utilization %v", report.GPUUtilization)
	}
}

func TestRunEpochWithOffloadPlanReducesTraffic(t *testing.T) {
	h := newHarness(t, 24, 4)
	tr := newTrainer(t, h.config())

	baseline, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Offload Decode+Crop for every sample: 64² crops of ≥48² images are
	// smaller than most raws here only sometimes — use full plan anyway
	// and check traffic accounting changes accordingly.
	plan, err := policy.NewUniformPlan("resize", 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	offloaded, err := tr.RunEpoch(2, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if offloaded.Offloaded != 24 {
		t.Fatalf("offloaded %d of 24", offloaded.Offloaded)
	}
	if offloaded.Samples != 24 || baseline.Samples != 24 {
		t.Fatal("sample counts wrong")
	}
	if offloaded.BytesFetched == baseline.BytesFetched {
		t.Fatal("offloading did not change traffic")
	}
	stats := serverStats(t, h)
	if stats.OpsExecuted == 0 {
		t.Fatal("server executed no offloaded ops")
	}
}

func serverStats(t testing.TB, h *harness) (out struct {
	OpsExecuted uint64
}) {
	t.Helper()
	conn, err := h.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out.OpsExecuted = s.OpsExecuted
	return out
}

func TestRunEpochRejectsMismatchedPlan(t *testing.T) {
	h := newHarness(t, 6, 1)
	tr := newTrainer(t, h.config())
	plan, _ := policy.NewUniformPlan("short", 3, 0)
	if _, err := tr.RunEpoch(1, plan, nil); err == nil {
		t.Fatal("accepted mismatched plan")
	}
}

func TestRunEpochOffloadWithoutCoresFails(t *testing.T) {
	h := newHarness(t, 6, 0)
	tr := newTrainer(t, h.config())
	plan, _ := policy.NewUniformPlan("resize", 6, 2)
	if _, err := tr.RunEpoch(1, plan, nil); err == nil {
		t.Fatal("offload against 0-core server succeeded")
	}
}

func TestProfilingEpochFillsCollector(t *testing.T) {
	h := newHarness(t, 12, 2)
	tr := newTrainer(t, h.config())
	collector, err := profiler.NewCollector(12)
	if err != nil {
		t.Fatal(err)
	}
	report, err := tr.RunEpoch(1, nil, collector)
	if err != nil {
		t.Fatal(err)
	}
	if report.Samples != 12 {
		t.Fatalf("profiled %d samples", report.Samples)
	}
	if !collector.Complete() {
		observed, total := collector.Progress()
		t.Fatalf("collector %d/%d after profiling epoch", observed, total)
	}
	trace, err := collector.Trace("live")
	if err != nil {
		t.Fatal(err)
	}
	// The measured trace is wired straight into the decision engine.
	env := policy.Env{
		Bandwidth:       netsim.Mbps(2),
		ComputeCores:    4,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	plan, err := policy.NewSophon().Plan(trace, env)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := plan.Traffic(trace)
	if err != nil {
		t.Fatal(err)
	}
	if traffic > trace.TotalRawBytes() {
		t.Fatal("measured-trace plan increased traffic")
	}
}

// TestProfilingEpochOverProgressiveStore: the stage-2 epoch reads source
// dimensions from whichever container the store holds.
func TestProfilingEpochOverProgressiveStore(t *testing.T) {
	set := newImageSet(t, 8)
	objects, _, err := compressor.MaterializeProgressive(set, imaging.MaxScans)
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.NewStore("live-sjpr", objects)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, newHarnessOver(t, store, 1).config())
	collector, err := profiler.NewCollector(len(objects))
	if err != nil {
		t.Fatal(err)
	}
	report, err := tr.RunEpoch(1, nil, collector)
	if err != nil {
		t.Fatal(err)
	}
	if report.Samples != len(objects) || !collector.Complete() {
		t.Fatalf("profiled %d of %d samples, complete=%v", report.Samples, len(objects), collector.Complete())
	}
	trace, err := collector.Trace("live-sjpr")
	if err != nil {
		t.Fatal(err)
	}
	for i := range objects {
		m, err := set.Meta(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := trace.Records[i]; got.Width != m.W || got.Height != m.H {
			t.Errorf("sample %d profiled as %dx%d, stored %dx%d", i, got.Width, got.Height, m.W, m.H)
		}
	}
}

func TestStage1ProbesLive(t *testing.T) {
	h := newHarness(t, 10, 1)
	tr := newTrainer(t, h.config())
	res, err := profiler.RunStage1(tr.Stage1Probes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUThroughput <= 0 || res.IOThroughput <= 0 || res.CPUThroughput <= 0 {
		t.Fatalf("probe throughputs: %+v", res)
	}
}

func TestStage1CPUProbeRequiresIOFirst(t *testing.T) {
	h := newHarness(t, 4, 1)
	tr := newTrainer(t, h.config())
	probes := tr.Stage1Probes()
	if _, _, err := probes.CPU(1); err == nil {
		t.Fatal("cpu probe ran without cached data")
	}
}

func TestEpochDeterministicSampleAccounting(t *testing.T) {
	h := newHarness(t, 16, 2)
	tr := newTrainer(t, h.config())
	a, err := tr.RunEpoch(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.RunEpoch(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same epoch, same plan → identical traffic (timings differ).
	if a.BytesFetched != b.BytesFetched || a.Samples != b.Samples || a.Batches != b.Batches {
		t.Fatalf("accounting diverged: %+v vs %+v", a, b)
	}
}

func TestTrainerCloseIdempotent(t *testing.T) {
	h := newHarness(t, 4, 1)
	tr := newTrainer(t, h.config())
	tr.Close()
	tr.Close()
}
