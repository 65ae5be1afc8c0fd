package trainsim

import (
	"testing"

	"repro/internal/metrics"
)

func TestTrainerFillsMetricsRegistry(t *testing.T) {
	h := newHarness(t, 12, 1)
	reg := metrics.NewRegistry()
	cfg := h.config()
	cfg.Metrics = reg
	tr := newTrainer(t, cfg)

	if _, err := tr.RunEpoch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["trainer.samples"] != 12 {
		t.Fatalf("trainer.samples = %d", snap.Counters["trainer.samples"])
	}
	if snap.Counters["trainer.epochs"] != 1 {
		t.Fatalf("trainer.epochs = %d", snap.Counters["trainer.epochs"])
	}
	if snap.Counters["trainer.bytes_fetched"] == 0 {
		t.Fatal("no bytes recorded")
	}
	if snap.Histograms["trainer.fetch_seconds"].Count != 12 {
		t.Fatalf("fetch histogram count = %d", snap.Histograms["trainer.fetch_seconds"].Count)
	}
	if snap.Histograms["trainer.preprocess_seconds"].Count != 12 {
		t.Fatalf("preprocess histogram count = %d", snap.Histograms["trainer.preprocess_seconds"].Count)
	}
}

func TestTrainerMetricsWithBatchedFetch(t *testing.T) {
	h := newHarness(t, 12, 1)
	reg := metrics.NewRegistry()
	cfg := h.config()
	cfg.Metrics = reg
	cfg.FetchBatchSize = 4
	tr := newTrainer(t, cfg)
	if _, err := tr.RunEpoch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["trainer.samples"] != 12 {
		t.Fatalf("trainer.samples = %d", snap.Counters["trainer.samples"])
	}
	// 12 samples in batches of 4 → 3 fetch observations.
	if snap.Histograms["trainer.fetch_seconds"].Count != 3 {
		t.Fatalf("fetch histogram count = %d", snap.Histograms["trainer.fetch_seconds"].Count)
	}
}
