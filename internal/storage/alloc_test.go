package storage

import (
	"runtime/debug"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/pipeline"
	"repro/internal/raceflag"
	"repro/internal/wire"
)

// TestPrefixServeSteadyStateAllocs pins the progressive fast path: answering
// a reduced-fidelity raw fetch slices the stored container and copies it
// into one pooled buffer — no decode, no re-encode. After warmup the whole
// handler should cost at most the response-struct allocation; the budget of
// 2 tolerates an occasional GC pool clear.
func TestPrefixServeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	st := progressiveStore(t, 1)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := &wire.FetchBatch{RequestID: 1, Epoch: 1, Items: []wire.FetchBatchItem{{Sample: 0, Fidelity: 2}}}
	serve := func() {
		resp := srv.handleFetchBatch(7, req)
		if resp.Items[0].Status != wire.FetchOK || resp.Items[0].Artifact == nil {
			t.Fatalf("prefix serve failed: %+v", resp)
		}
		wire.Recycle(resp)
	}
	for i := 0; i < 16; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(100, serve)
	if allocs > 2 {
		t.Fatalf("prefix serve allocates %.1f allocs/op at steady state, budget is 2", allocs)
	}
}

// TestRunPrefixEncodedCut2SteadyStateAllocs pins the offloaded hot path: a
// cut-2 fetch decodes, crops and packs the crop into one pooled buffer. With
// warm pools what allocates is the cropped Image's header — the fused
// decode→crop never builds the decoded image, and its tap tables and compact
// buffer are pooled like the packer's code tables and plane scratch. The
// collector is off because only a collection empties the pools.
func TestRunPrefixEncodedCut2SteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := testStore(t, 1)
	raw, err := st.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(pipeline.Standard(pipeline.StandardOptions{CropSize: 128, FlipP: -1}), 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sample uint64
	allocs := testing.AllocsPerRun(50, func() {
		sample++
		enc, err := exec.RunPrefixEncoded(raw, 2, pipeline.Seed{Job: 1, Epoch: 1, Sample: sample})
		if err != nil {
			t.Fatal(err)
		}
		bufpool.PutBytes(enc)
	})
	if allocs != 1 {
		t.Fatalf("cut-2 RunPrefixEncoded allocates %.1f allocs/op at steady state, want 1 (the crop's Image header)", allocs)
	}
}
