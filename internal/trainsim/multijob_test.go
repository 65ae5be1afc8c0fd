package trainsim

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
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
			return storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: jobID})
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
		c, err := storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: jobID})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := storage.FetchOne(context.Background(), c, 0, 2, 5) // offloaded RandomResizedCrop
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

// TestConcurrentJobsSplitTheLinkEvenly is the premise concurrent jobs are
// planned on: two trainers on one link-bound shaped tier each get half the
// link, and nothing on the tier gives one more than the other. Each trains
// a solo epoch, then both train one at once: the concurrent epochs match
// each other, and each takes about twice its solo epoch. A tier that held
// unequal per-job shares would be tested here.
func TestConcurrentJobsSplitTheLinkEvenly(t *testing.T) {
	const (
		n    = 32
		mbps = 3 // ≈ 0.5 s for a solo epoch's ≈ 180 KB of raw fetches
	)
	store, err := storage.FromImageSet(newImageSet(t, n))
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: 64, FlipP: -1})
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No burst: banked tokens would serve a solo epoch faster than the link.
	bucket, err := netsim.NewTokenBucket(netsim.Mbps(mbps), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(netsim.ShapeListener(l, bucket))
	t.Cleanup(func() { srv.Close() })
	h := &harness{listener: l, server: srv, pipe: p, n: n}

	trainers := make([]*Trainer, 2)
	for i := range trainers {
		jobID := uint64(10 + i)
		cfg := h.config()
		cfg.JobID = jobID
		cfg.DialClient = func() (storage.Fetcher, error) {
			conn, err := l.Dial()
			if err != nil {
				return nil, err
			}
			return storage.NewClientWithOptions(conn, storage.ClientOptions{JobID: jobID})
		}
		trainers[i] = newTrainer(t, cfg)
		t.Cleanup(trainers[i].Close)
	}
	// Raw fetches (a nil plan): the link, not either side's CPU, binds.
	solo := make([]time.Duration, 2)
	for i, tr := range trainers {
		rep, err := tr.RunEpoch(1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep.Duration
	}
	both := make([]time.Duration, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, tr := range trainers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rep EpochReport
			rep, errs[i] = tr.RunEpoch(2, nil, nil)
			both[i] = rep.Duration
		}()
	}
	wg.Wait()
	for i := range trainers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		t.Logf("job %d: solo %v, concurrent %v (%.2f×)", i, solo[i], both[i], float64(both[i])/float64(solo[i]))
		if float64(both[i]) < 1.7*float64(solo[i]) {
			t.Errorf("job %d: concurrent epoch %v is under 1.7× its solo %v: the link did not bind", i, both[i], solo[i])
		}
	}
	if r := float64(both[0]) / float64(both[1]); r < 0.9 || r > 1.1 {
		t.Errorf("concurrent epochs %v and %v (ratio %.2f): the link split unevenly", both[0], both[1], r)
	}
}
