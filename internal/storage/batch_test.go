package storage

import (
	"context"
	"errors"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/wire"
)

func TestFetchBatchMatchesSingleFetches(t *testing.T) {
	set := testImageSet(t, 4)
	st, err := FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.DefaultStandard()
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 2})
	c := dial()

	samples := []uint32{0, 1, 2, 3}
	splits := []int{0, 1, 2, 5}
	const epoch = 4
	batch, err := c.FetchBatch(context.Background(), samples, splits, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch returned %d results", len(batch))
	}
	for i := range samples {
		single, err := FetchOne(context.Background(), c, samples[i], splits[i], epoch)
		if err != nil {
			t.Fatal(err)
		}
		if !batch[i].Artifact.Equal(single.Artifact) {
			t.Fatalf("item %d differs between batch and single fetch", i)
		}
		if batch[i].Split != splits[i] {
			t.Fatalf("item %d split %d", i, batch[i].Split)
		}
	}
}

func TestFetchBatchWireAccounting(t *testing.T) {
	st := testStore(t, 3)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	c := dial()
	batch, err := c.FetchBatch(context.Background(), []uint32{0, 1, 2}, []int{0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range batch {
		if r.WireBytes <= 0 {
			t.Fatal("zero wire bytes")
		}
		total += r.WireBytes
	}
	// Batched accounting sums to the whole frame; it must be smaller than
	// three individual response frames would be.
	var singles int
	for i := uint32(0); i < 3; i++ {
		r, err := FetchOne(context.Background(), c, i, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		singles += r.WireBytes
	}
	if total >= singles {
		t.Fatalf("batched wire bytes %d not below %d", total, singles)
	}
}

func TestFetchBatchValidation(t *testing.T) {
	st := testStore(t, 2)
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 1})
	c := dial()

	if _, err := c.FetchBatch(context.Background(), nil, nil, 1); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := c.FetchBatch(context.Background(), []uint32{0}, []int{0, 1}, 1); err == nil {
		t.Fatal("accepted mismatched splits")
	}
	if _, err := c.FetchBatch(context.Background(), []uint32{0}, []int{-1}, 1); err == nil {
		t.Fatal("accepted out-of-range split")
	}
	if _, err := c.FetchBatch(context.Background(), []uint32{0}, []int{PackDirective(0, 256)}, 1); err == nil {
		t.Fatal("accepted out-of-range fidelity")
	}
	big := make([]uint32, wire.MaxBatchItems+1)
	bigSplits := make([]int, len(big))
	if _, err := c.FetchBatch(context.Background(), big, bigSplits, 1); err == nil {
		t.Fatal("accepted oversized batch")
	}
	// Per-item failures do not fail the call: the healthy item comes back
	// and the broken one carries its error in FetchResult.Err.
	res, err := c.FetchBatch(context.Background(), []uint32{0, 99}, []int{0, 0}, 1)
	if err != nil {
		t.Fatalf("batch with missing sample failed whole call: %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("healthy item err = %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrSampleMissing) || res[1].Status != wire.FetchNotFound {
		t.Fatalf("missing item = %+v", res[1])
	}
	res, err = c.FetchBatch(context.Background(), []uint32{0}, []int{6}, 1)
	if err != nil {
		t.Fatalf("batch with bad split failed whole call: %v", err)
	}
	if !errors.Is(res[0].Err, ErrBadSplitReq) {
		t.Fatalf("bad split item err = %v", res[0].Err)
	}
	c.Close()
	if _, err := c.FetchBatch(context.Background(), []uint32{0}, []int{0}, 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("closed client err = %v", err)
	}
}

func TestFetchBatchDeterministicAugmentation(t *testing.T) {
	// The same (job, epoch, sample) must produce identical artifacts via
	// batch and single paths — augmentation seeds don't depend on request
	// shape.
	set := testImageSet(t, 1)
	st, _ := FromImageSet(set)
	p := pipeline.DefaultStandard()
	_, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 1})
	a := dial()
	b := dial()

	batch, err := a.FetchBatch(context.Background(), []uint32{0}, []int{3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	single, err := FetchOne(context.Background(), b, 0, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !batch[0].Artifact.Equal(single.Artifact) {
		t.Fatal("batch and single artifacts differ for the same seed context")
	}
}
