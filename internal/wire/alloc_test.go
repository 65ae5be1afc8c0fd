package wire

import (
	"io"
	"testing"

	"repro/internal/raceflag"
)

// TestWriteSteadyStateAllocs pins the frame-encode path: Write assembles
// header and payload in one pooled buffer, so after warmup it should not
// allocate at all. The budget of 2 tolerates an occasional GC pool clear.
func TestWriteSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	artifact := make([]byte, 600<<10)
	m := &FetchBatchResp{RequestID: 7, Items: []FetchBatchRespItem{{Sample: 3, Split: 2, Status: FetchOK, Artifact: artifact}}}
	for i := 0; i < 8; i++ {
		if err := Write(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := Write(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Write allocates %.1f allocs/op at steady state, budget is 2", allocs)
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
