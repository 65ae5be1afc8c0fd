package storage

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func TestServerRejectsNegativeIdleTimeout(t *testing.T) {
	st := testStore(t, 1)
	if _, err := NewServer(ServerConfig{
		Store: st, Pipeline: pipeline.DefaultStandard(), IdleTimeout: -time.Second,
	}); err == nil {
		t.Fatal("accepted negative idle timeout")
	}
}

// TestIdleTimeoutDropsSilentClients: a handshaked-but-silent client is
// disconnected; an active client is not.
func TestIdleTimeoutDropsSilentClients(t *testing.T) {
	st := testStore(t, 2)
	srv, err := NewServer(ServerConfig{
		Store:       st,
		Pipeline:    pipeline.DefaultStandard(),
		Cores:       1,
		IdleTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	silent, err := DialWithOptions(l.Addr().String(), ClientOptions{JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	active, err := DialWithOptions(l.Addr().String(), ClientOptions{JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()

	// Keep the active client busy until the server demonstrably reaps the
	// silent one — the connection gauge dropping to 1 is the condition, so
	// the test waits on observable state, not on a wall-clock guess.
	ctr := srv.Counters()
	deadline := time.Now().Add(10 * time.Second)
	for ctr.Connections.Load() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle reaper never fired: %d connections open", ctr.Connections.Load())
		}
		if _, err := FetchOne(context.Background(), active, 0, 0, 1); err != nil {
			t.Fatalf("active client dropped: %v", err)
		}
	}

	// The silent client's connection must be gone by now.
	if _, err := FetchOne(context.Background(), silent, 0, 0, 1); err == nil {
		t.Fatal("silent client survived the idle timeout")
	}
}
