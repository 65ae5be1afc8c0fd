package trainsim

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/storage"
)

// TestValidationPipelineEndToEnd runs a server and trainer on the
// deterministic eval pipeline with offloading: split execution works for
// non-training pipelines too, and outputs are seed-independent.
func TestValidationPipelineEndToEnd(t *testing.T) {
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "val", N: 10, Seed: 55, MinDim: 96, MaxDim: 220,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.Validation(96, 80)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	tr := newTrainer(t, Config{
		DialClient: func() (storage.Fetcher, error) {
			conn, err := l.Dial()
			if err != nil {
				return nil, err
			}
			return storage.NewClient(conn, 1)
		},
		Workers:   2,
		Pipeline:  p,
		GPU:       gpu.AlexNet,
		BatchSize: 5,
		JobID:     1,
	})

	// Offload the deterministic prefix (Decode + ResizeShorter +
	// CenterCrop) for every sample.
	plan, err := policy.NewUniformPlan("val-off", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 10 || rep.Offloaded != 10 {
		t.Fatalf("validation epoch: %+v", rep)
	}

	// Server-side prefix for a validation pipeline is epoch-independent:
	// the same sample fetched in different epochs is byte-identical.
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := storage.NewClient(conn, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Fetch(context.Background(), 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Fetch(context.Background(), 3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Artifact.Equal(b.Artifact) {
		t.Fatal("validation prefix depends on the epoch")
	}
}
