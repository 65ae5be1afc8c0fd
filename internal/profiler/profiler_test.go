package profiler

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"

	"repro/internal/imaging"
)

func paperEnv() policy.Env {
	return policy.Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    48,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
}

func TestBottleneckClassification(t *testing.T) {
	cases := []struct {
		r    Stage1Result
		want Bottleneck
	}{
		{Stage1Result{GPUThroughput: 3000, IOThroughput: 200, CPUThroughput: 900}, ioBound},
		{Stage1Result{GPUThroughput: 3000, IOThroughput: 900, CPUThroughput: 200}, cpuBound},
		{Stage1Result{GPUThroughput: 100, IOThroughput: 900, CPUThroughput: 800}, gpuBound},
		{Stage1Result{GPUThroughput: 200, IOThroughput: 200, CPUThroughput: 900}, ioBound}, // tie → IO
	}
	for i, c := range cases {
		if got := c.r.Bottleneck(); got != c.want {
			t.Errorf("case %d: bottleneck = %s, want %s", i, got, c.want)
		}
	}
	if !(Stage1Result{GPUThroughput: 2, IOThroughput: 1, CPUThroughput: 3}).IOBound() {
		t.Fatal("IOBound() false for io-limited probes")
	}
	for b, want := range map[Bottleneck]string{ioBound: "io-bound", cpuBound: "cpu-bound", gpuBound: "gpu-bound", Bottleneck(9): "bottleneck(9)"} {
		if b.String() != want {
			t.Errorf("%d.String() = %q", b, b.String())
		}
	}
}

func TestRunStage1(t *testing.T) {
	mk := func(rate float64) Probe {
		return func(batches int) (int, time.Duration, error) {
			n := batches * 32
			return n, time.Duration(float64(n) / rate * float64(time.Second)), nil
		}
	}
	res, err := RunStage1(Probes{GPU: mk(3000), IO: mk(200), CPU: mk(1000)}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck() != ioBound {
		t.Fatalf("bottleneck = %s", res.Bottleneck())
	}
	approx := func(got, want float64) bool { return got > want*0.99 && got < want*1.01 }
	if !approx(res.GPUThroughput, 3000) || !approx(res.IOThroughput, 200) || !approx(res.CPUThroughput, 1000) {
		t.Fatalf("throughputs: %+v", res)
	}
}

func TestRunStage1Errors(t *testing.T) {
	ok := func(batches int) (int, time.Duration, error) { return 10, time.Second, nil }
	bad := func(batches int) (int, time.Duration, error) { return 0, 0, nil }
	failing := func(batches int) (int, time.Duration, error) { return 0, 0, errors.New("boom") }

	if _, err := RunStage1(Probes{GPU: ok, IO: ok}, 10); err == nil {
		t.Fatal("accepted missing probe")
	}
	if _, err := RunStage1(Probes{GPU: ok, IO: bad, CPU: ok}, 10); err == nil {
		t.Fatal("accepted zero-sample probe")
	}
	if _, err := RunStage1(Probes{GPU: ok, IO: ok, CPU: failing}, 10); err == nil {
		t.Fatal("accepted failing probe")
	}
}

func TestCollectorLifecycle(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Fatal("accepted n=0")
	}
	c, err := NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace("x"); err == nil {
		t.Fatal("incomplete collector produced a trace")
	}

	p := pipeline.DefaultStandard()
	var shipped [3][]int
	for id := uint32(0); id < 3; id++ {
		im, err := imaging.Synthesize(imaging.SynthParams{W: 60 + int(id)*10, H: 50, Detail: 0.4, Seed: uint64(id)})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := imaging.EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := p.Trace(raw, pipeline.Seed{Job: 1, Epoch: 1, Sample: uint64(id)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(id, st, im.W, im.H); err != nil {
			t.Fatal(err)
		}
		shipped[id] = st.Shipped
	}
	tr, err := c.Trace("measured")
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 3 || tr.Name != "measured" {
		t.Fatalf("trace: %d samples, %q", tr.N(), tr.Name)
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		// The record carries what each cut ships, not the size law: the
		// 224×224 crop travels packed, under its unpacked size.
		for k, s := range shipped[i] {
			if r.StageSizes[k] != int64(s) {
				t.Fatalf("record %d stage %d size %d, trace shipped %d", i, k, r.StageSizes[k], s)
			}
		}
		if law := int64(pipeline.ImageWireSize(224, 224)); r.StageSizes[2] >= law {
			t.Fatalf("record %d stage2 size %d is not under the unpacked %d", i, r.StageSizes[2], law)
		}
		if r.Width != 60+i*10 {
			t.Fatalf("record %d width %d", i, r.Width)
		}
		if r.RawSize != r.StageSizes[0]-1 {
			t.Fatalf("record %d raw size inconsistent", i)
		}
	}
}

func TestCollectorRejectsBadObservations(t *testing.T) {
	c, _ := NewCollector(2)
	if err := c.Observe(0, pipeline.StageTrace{}, 1, 1); err == nil {
		t.Fatal("accepted empty stage trace")
	}
	good := pipeline.StageTrace{
		Shipped: make([]int, dataset.StageCount),
		OpTimes: make([]time.Duration, dataset.OpCount),
	}
	if err := c.Observe(5, good, 1, 1); err == nil {
		t.Fatal("accepted out-of-range id")
	}
	if err := c.Observe(0, good, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Re-observation overwrites without double-counting.
	if err := c.Observe(0, good, 2, 2); err != nil {
		t.Fatal(err)
	}
	if c.count != 1 || len(c.records) != 2 {
		t.Fatalf("progress %d/%d", c.count, len(c.records))
	}
}

func TestCollectorConcurrent(t *testing.T) {
	const n = 64
	c, _ := NewCollector(n)
	st := pipeline.StageTrace{
		Shipped: make([]int, dataset.StageCount),
		OpTimes: make([]time.Duration, dataset.OpCount),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < n; id += 8 {
				if err := c.Observe(uint32(id), st, 10, 10); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.count != n {
		t.Fatalf("progress %d/%d after concurrent observes", c.count, n)
	}
}

// TestCollectedTraceDrivesEngine: a trace measured from real images feeds
// the decision engine end to end.
func TestCollectedTraceDrivesEngine(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "mini", N: 12, Seed: 8, MinDim: 100, MaxDim: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCollector(set.N())
	p := pipeline.DefaultStandard()
	for i := 0; i < set.N(); i++ {
		raw, err := set.Raw(i)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := set.Meta(i)
		_, st, err := p.Trace(raw, pipeline.Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(uint32(i), st, m.W, m.H); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := c.Trace(set.Name())
	if err != nil {
		t.Fatal(err)
	}
	env := paperEnv()
	env.Bandwidth = netsim.Mbps(5) // tiny link so the mini set is I/O bound
	plan, err := policy.NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := plan.Traffic(tr)
	if err != nil {
		t.Fatal(err)
	}
	if traffic > tr.TotalRawBytes() {
		t.Fatalf("SOPHON plan increased traffic: %d > %d", traffic, tr.TotalRawBytes())
	}
}

// measure runs the stage-2 kernel over every image and returns the collected
// trace.
func measure(t *testing.T, p *pipeline.Pipeline, name string, images []*imaging.Image) *dataset.Trace {
	t.Helper()
	c, err := NewCollector(len(images))
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range images {
		raw, err := imaging.EncodeDefault(im)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := p.Trace(raw, pipeline.Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		if err := c.Observe(uint32(i), st, im.W, im.H); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := c.Trace(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func synthSet(t *testing.T, seed uint64, dims ...[2]int) []*imaging.Image {
	t.Helper()
	images := make([]*imaging.Image, len(dims))
	for i, d := range dims {
		im, err := imaging.Synthesize(imaging.SynthParams{W: d[0], H: d[1], Detail: 0.5, Seed: seed + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		images[i] = im
	}
	return images
}

// TestPlannerPricesShippedBytes: the collected StageSizes are what a cut
// ships, so the planner offloads the samples whose stored object is smaller
// than the unpacked crop but larger than the packed one — under the size law
// alone raw would be their minimum — and still offloads nothing when every
// stored object is below even the packed crop.
func TestPlannerPricesShippedBytes(t *testing.T) {
	const crop = 128
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: crop, FlipP: -1})
	env := paperEnv()
	env.Bandwidth = netsim.Mbps(5)
	law := int64(pipeline.ImageWireSize(crop, crop))

	between := measure(t, p, "between", synthSet(t, 3, [2]int{220, 165}, [2]int{240, 180}, [2]int{250, 190}, [2]int{270, 200}))
	plan, err := policy.NewSophon().Plan(between, env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range between.Records {
		r := &between.Records[i]
		if !(r.StageSizes[2] < r.StageSizes[0] && r.StageSizes[0] < law) {
			t.Fatalf("sample %d: raw %d is not between the packed crop %d and the unpacked %d", i, r.StageSizes[0], r.StageSizes[2], law)
		}
		if plan.Split(i) < 2 {
			t.Errorf("sample %d (raw %d, crop ships %d) planned at cut %d, want offloaded to the crop", i, r.StageSizes[0], r.StageSizes[2], plan.Split(i))
		}
	}

	small := measure(t, p, "raw-minimal", synthSet(t, 5, [2]int{80, 60}, [2]int{96, 72}, [2]int{110, 90}, [2]int{128, 96}))
	plan, err = policy.NewSophon().Plan(small, env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Records {
		if r := &small.Records[i]; r.MinStage() != 0 {
			t.Fatalf("sample %d: raw %d is not its smallest stage %v", i, r.StageSizes[0], r.StageSizes)
		}
	}
	if n := plan.OffloadedCount(); n != 0 {
		t.Errorf("%d of %d raw-minimal samples offloaded", n, small.N())
	}
}
