package trainsim

import (
	"runtime"
	"testing"
	"time"
)

// newTrainer builds a Trainer and, at test cleanup, closes it and checks the
// loader left nothing behind — whichever way its last epoch ended (drained,
// aborted on the first error, or degraded around a dead shard): no goroutine
// beyond those running before New — the loader's workers and the fetch
// scheduler's issue goroutines included — and no staged bytes on the
// scheduler's gauge.
func newTrainer(t testing.TB, cfg Config) *Trainer {
	t.Helper()
	// A server is still spawning the handlers of a session dialled just
	// before (an earlier trainer of the same test): count once that settles.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		if b := tr.PrefetchMetrics().Snapshot().StagedBytes; b != 0 {
			t.Errorf("loader teardown: %d bytes still staged", b)
		}
		// Session readers and the server's per-connection handlers exit
		// asynchronously after Close.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("loader teardown: %d goroutines, %d before New\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	return tr
}
