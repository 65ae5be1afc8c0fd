package trainsim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/storage"
)

// TestTwoJobsShareOneServer runs two trainers with different job IDs
// against the same storage server concurrently: both complete, and their
// augmentation streams are isolated.
func TestTwoJobsShareOneServer(t *testing.T) {
	h := newHarness(t, 16, 2)

	mkTrainer := func(jobID uint64) *Trainer {
		cfg := h.config()
		cfg.JobID = jobID
		cfg.DialClient = func() (storage.Fetcher, error) {
			conn, err := h.listener.Dial()
			if err != nil {
				return nil, err
			}
			return storage.NewClient(conn, jobID)
		}
		tr := newTrainer(t, cfg)
		t.Cleanup(tr.Close)
		return tr
	}
	a := mkTrainer(100)
	b := mkTrainer(200)

	var wg sync.WaitGroup
	reports := make([]EpochReport, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); reports[0], errs[0] = a.RunEpoch(1, nil, nil) }()
	go func() { defer wg.Done(); reports[1], errs[1] = b.RunEpoch(1, nil, nil) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if reports[i].Samples != 16 {
			t.Fatalf("job %d trained %d samples", i, reports[i].Samples)
		}
	}
}

// TestJobIsolationOfAugmentations: the same sample, epoch, and split yield
// different augmented artifacts for different job IDs (the server derives
// seeds from the handshake's job ID).
func TestJobIsolationOfAugmentations(t *testing.T) {
	h := newHarness(t, 2, 2)
	fetch := func(jobID uint64) pipeline.Artifact {
		conn, err := h.listener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := storage.NewClient(conn, jobID)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Fetch(context.Background(), 0, 2, 5) // offloaded RandomResizedCrop
		if err != nil {
			t.Fatal(err)
		}
		return res.Artifact
	}
	a := fetch(1)
	b := fetch(2)
	if a.Equal(b) {
		t.Fatal("different jobs received identical augmentations")
	}
	// Same job twice: identical (idempotent fetch).
	if !fetch(1).Equal(a) {
		t.Fatal("same job's refetch differs")
	}
}
