package storage

import (
	"runtime/debug"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/raceflag"
	"repro/internal/wire"
)

// TestPrefixServeSteadyStateAllocs pins the progressive fast path: answering
// a reduced-fidelity raw fetch slices the stored container and copies it
// into one pooled buffer — no decode, no re-encode. With warm pools the
// handler makes exactly two allocations, the response struct and its items
// slice. The collector is off because only a collection empties the pools.
func TestPrefixServeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
	allocs := testing.AllocsPerRun(100, serve)
	if allocs != 2 {
		t.Fatalf("prefix serve allocates %.1f allocs/op at steady state, want 2 (the response and its items)", allocs)
	}
}

// TestRunPrefixEncodedCut2SteadyStateAllocs pins the offloaded hot path: a
// cut-2 fetch decodes, crops and packs the crop into one pooled buffer. With
// warm pools what allocates is the cropped Image's header — the fused
// decode→crop never builds the decoded image, and its tap tables and compact
// buffer are pooled like the packer's code tables and plane scratch. The
// server's path, which crops from the object's decoded planes, allocates the
// same once its slot is filled (AllocsPerRun's warm-up run fills it): the
// planes are allocated on the object's first use only. The collector is off
// because only a collection empties the pools.
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
	for _, slot := range []*planeSlot{nil, st.slot(0)} {
		var sample uint64
		allocs := testing.AllocsPerRun(50, func() {
			sample++
			enc, err := exec.runPrefixEncoded(raw, slot, 2, pipeline.Seed{Job: 1, Epoch: 1, Sample: sample})
			if err != nil {
				t.Fatal(err)
			}
			bufpool.PutBytes(enc)
		})
		if allocs != 1 {
			t.Fatalf("cut-2 prefix (decoded planes: %v) allocates %.1f allocs/op at steady state, want 1 (the crop's Image header)", slot != nil, allocs)
		}
	}
	if got := exec.wholeDecodes.Load(); got != 1 {
		t.Fatalf("%d whole decodes of one object, want 1", got)
	}
}

// TestRowSliceServeSteadyStateAllocs pins a raw fetch under Rows at the
// prefix serve's budget: drawing the crop (Pipeline.CropRect) and cutting
// the bands it reads, at full fidelity and withholding a scan
// (imaging.Slice), allocate nothing — two allocations, the response struct
// and its items slice.
func TestRowSliceServeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := progressiveStore(t, 4)
	srv, err := NewServer(ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := st.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range []uint8{0, 1} {
		req := &wire.FetchBatch{RequestID: 1, Items: []wire.FetchBatchItem{{Sample: 3, Fidelity: fid, Rows: true}}}
		// An epoch whose crop skips a band, so that the form ships less than
		// the prefix.
		prefix := imaging.Slice(make([]byte, len(raw)), raw, int(fid), imaging.Rect{})
		for req.Epoch = 1; ; req.Epoch++ {
			resp := srv.handleFetchBatch(7, req)
			n := len(resp.Items[0].Artifact)
			wire.Recycle(resp)
			if n < 1+prefix {
				break
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			resp := srv.handleFetchBatch(7, req)
			if resp.Items[0].Status != wire.FetchOK {
				t.Fatalf("row-sliced serve failed: %+v", resp)
			}
			wire.Recycle(resp)
		})
		if allocs != 2 {
			t.Fatalf("row-sliced serve at fidelity %d allocates %.1f allocs/op at steady state, want 2 (the response and its items)", fid, allocs)
		}
	}
}
