package wire

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentFrameRoundTrip hammers the pooled frame encode/decode path
// from GOMAXPROCS goroutines, each with its own connection buffer but all
// sharing the global buffer pools. Every decoded artifact must match the
// pattern its writer stamped in: a pooled buffer handed to two frames at
// once, or recycled while still referenced, shows up as a corrupted payload
// (or a race-detector report).
func TestConcurrentFrameRoundTrip(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	iters := 60
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var conn bytes.Buffer
			for i := 0; i < iters; i++ {
				size := 1<<10 + (w*131+i*17)%(48<<10)
				artifact := make([]byte, size)
				fill := byte(w*31 + i)
				for j := range artifact {
					artifact[j] = fill + byte(j)
				}
				req := &FetchBatchResp{RequestID: uint64(w)<<32 | uint64(i), Items: []FetchBatchRespItem{
					{Sample: uint32(i), Split: uint8(w % 4), Status: FetchOK, Artifact: artifact}}}
				conn.Reset()
				if err := Write(&conn, req); err != nil {
					t.Error(err)
					return
				}
				msg, err := Read(&conn)
				if err != nil {
					t.Error(err)
					return
				}
				resp, ok := msg.(*FetchBatchResp)
				if !ok || len(resp.Items) != 1 {
					t.Errorf("worker %d iter %d: decoded %T, want a one-item *FetchBatchResp", w, i, msg)
					return
				}
				if resp.RequestID != req.RequestID || !bytes.Equal(resp.Items[0].Artifact, artifact) {
					t.Errorf("worker %d iter %d: round-tripped frame corrupted", w, i)
					Recycle(msg)
					return
				}
				Recycle(msg)
			}
		}(w)
	}
	wg.Wait()
}
