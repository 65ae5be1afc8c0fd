package wire

import (
	"io"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// TestWriteSteadyStateAllocs pins the frame-encode path: Write assembles
// header and payload in one pooled buffer, so with a warm pool it does not
// allocate at all. The collector is off because only a collection empties
// the pool.
func TestWriteSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	artifact := make([]byte, 600<<10)
	m := &FetchBatchResp{RequestID: 7, Items: []FetchBatchRespItem{{Sample: 3, Split: 2, Status: FetchOK, Artifact: artifact}}}
	allocs := testing.AllocsPerRun(50, func() {
		if err := Write(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Write allocates %.1f allocs/op at steady state, want 0", allocs)
	}
}

// FrameSize must never allocate: the multiplexer calls it on every frame for
// traffic accounting.
func TestFrameSizeAllocFree(t *testing.T) {
	m := &FetchBatchResp{RequestID: 7, Items: []FetchBatchRespItem{{Artifact: make([]byte, 1024)}}}
	allocs := testing.AllocsPerRun(100, func() {
		if FrameSize(m) <= 0 {
			t.Fatal("bad frame size")
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameSize allocates %.1f allocs/op, want 0", allocs)
	}
}
