package trainsim

import (
	"testing"

	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/storage"
)

// progressiveHarness is newHarness over a store of progressive containers,
// so reduced-fidelity plans exercise the server's prefix fast path live.
func progressiveHarness(t testing.TB, n, serverCores int) *harness {
	t.Helper()
	blobs := make([][]byte, n)
	for i := range blobs {
		im, err := imaging.Synthesize(imaging.SynthParams{
			W: 48 + 4*(i%8), H: 48 + 4*(i%5), Detail: 0.5, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		blobs[i], err = imaging.EncodeProgressive(im, 80, imaging.MaxScans)
		if err != nil {
			t.Fatal(err)
		}
	}
	store, err := storage.NewStore("live-prog", blobs)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: 32, FlipP: -1})
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p, Cores: serverCores})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return &harness{listener: l, server: srv, pipe: p, n: n}
}

// A live epoch under a reduced-fidelity plan must train every sample while
// fetching strictly fewer bytes than the full-fidelity epoch, with every raw
// fetch answered from the server's prefix fast path.
func TestRunEpochFidelityPlanReducesTraffic(t *testing.T) {
	const n = 16
	h := progressiveHarness(t, n, 0)
	tr := newTrainer(t, h.config())

	baseline, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := policy.NewUniformPlan("prog", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan.Fidelity = make([]uint8, n)
	for i := range plan.Fidelity {
		plan.Fidelity[i] = 2
	}
	reduced, err := tr.RunEpoch(2, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reduced.Samples != n || baseline.Samples != n {
		t.Fatalf("samples: baseline %d, reduced %d", baseline.Samples, reduced.Samples)
	}
	if reduced.BytesFetched >= baseline.BytesFetched {
		t.Fatalf("reduced-fidelity epoch fetched %d bytes, full epoch %d", reduced.BytesFetched, baseline.BytesFetched)
	}
	if reduced.Offloaded != 0 {
		t.Fatalf("fidelity plan counted %d offloaded samples", reduced.Offloaded)
	}
	c := h.server.Counters()
	if got := c.PrefixServed.Load(); got != n {
		t.Fatalf("server prefix-served %d fetches, want %d", got, n)
	}
	if c.PrefixBytesSaved.Load() == 0 {
		t.Fatal("server saved no bytes")
	}
}

// The fidelity dimension must survive the batched fetch path too.
func TestRunEpochFidelityBatched(t *testing.T) {
	const n = 12
	h := progressiveHarness(t, n, 0)
	cfg := h.config()
	cfg.FetchBatchSize = 4
	tr := newTrainer(t, cfg)

	plan, err := policy.NewUniformPlan("prog", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan.Fidelity = make([]uint8, n)
	for i := range plan.Fidelity {
		plan.Fidelity[i] = 1
	}
	report, err := tr.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Samples != n {
		t.Fatalf("trained %d of %d", report.Samples, n)
	}
	if got := h.server.Counters().PrefixServed.Load(); got != n {
		t.Fatalf("prefix-served %d, want %d", got, n)
	}
	if report.GPUBusy == 0 || report.Batches == 0 {
		t.Fatalf("empty accounting: %+v", report)
	}
}
