package storage

import (
	"context"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestConnectionGauge: the open-connection gauge tracks accepts and
// disconnects.
func TestConnectionGauge(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{
		Store:    testStore(t, 4),
		Pipeline: pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: -1}),
	})
	ctr := srv.Counters()

	waitFor := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for ctr.Connections.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("connections gauge stuck at %d, want %d", ctr.Connections.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	c1 := dial()
	if _, err := FetchOne(context.Background(), c1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(1)
	c2 := dial()
	if _, err := FetchOne(context.Background(), c2, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(2)
	c1.Close()
	waitFor(1)
	c2.Close()
	waitFor(0)
	if got := ctr.InFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge %d after quiescence", got)
	}
}
