package storage

import (
	"context"
	"testing"

	"repro/internal/imaging"
	"repro/internal/pipeline"
)

// decodedPipe is the pipeline the decoded-planes tests serve: a crop small
// enough to keep them quick.
func decodedPipe() *pipeline.Pipeline {
	return pipeline.Standard(pipeline.StandardOptions{CropSize: 48, FlipP: -1})
}

// finishLocally runs the ops after cut on what a fetch of sample at cut
// returned and compares the tensor with the local pipeline's over the stored
// object, seeded as the server seeds a fetch of startServer's job.
func finishLocally(t *testing.T, p *pipeline.Pipeline, raw []byte, r FetchResult, cut int, epoch uint64) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("epoch %d sample %d cut %d: %v", epoch, r.Sample, cut, r.Err)
	}
	seed := pipeline.Seed{Job: 42, Epoch: epoch, Sample: uint64(r.Sample)}
	got, err := p.RunRange(r.Artifact, cut, p.Len(), seed)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	want, err := p.Run(raw, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()
	if !got.Equal(want) {
		t.Fatalf("epoch %d sample %d cut %d: tensor differs from the local pipeline's", epoch, r.Sample, cut)
	}
}

// TestServerCropsFromDecodedPlanes: 1- and 4-core servers answer cut-1,
// cut-2 and cut-5 directives for the same samples over three epochs, all in
// one batch, so that an object's first offloads race. Every tensor, finished
// locally, equals the local pipeline's, and each object was decoded whole
// exactly once, into its slot.
func TestServerCropsFromDecodedPlanes(t *testing.T) {
	const n = 8
	p := decodedPipe()
	cuts := []int{1, 2, p.Len()}
	var samples []uint32
	var splits []int
	for _, cut := range cuts {
		for s := range n {
			samples, splits = append(samples, uint32(s)), append(splits, cut)
		}
	}
	for _, cores := range []int{1, 4} {
		st := testStore(t, n)
		srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: cores})
		c := dial()
		for epoch := uint64(1); epoch <= 3; epoch++ {
			res, err := c.FetchBatch(context.Background(), samples, splits, epoch)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				raw, err := st.Get(r.Sample)
				if err != nil {
					t.Fatal(err)
				}
				finishLocally(t, p, raw, r, splits[i], epoch)
			}
		}
		if got := srv.exec.wholeDecodes.Load(); got != n {
			t.Errorf("%d cores: %d whole decodes of %d objects offloaded 9 times each, want one each", cores, got, n)
		}
		for s := range n {
			if st.slot(uint32(s)).planes == nil {
				t.Errorf("%d cores: sample %d has no decoded planes", cores, s)
			}
		}
	}
}

// TestPlaneBytesCountsFilledSlots: a server that serves cut 2 of k objects
// reports exactly their planes' bytes, w·h + 2·⌈w/2⌉·⌈h/2⌉ each, and serving
// them again adds nothing.
func TestPlaneBytesCountsFilledSlots(t *testing.T) {
	const n, k = 6, 4
	st := testStore(t, n)
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: decodedPipe(), Cores: 2})
	c := dial()
	var want uint64
	for s := range k {
		raw, err := st.Get(uint32(s))
		if err != nil {
			t.Fatal(err)
		}
		im, err := imaging.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		want += uint64(im.W*im.H + 2*((im.W+1)/2)*((im.H+1)/2))
		im.Release()
	}
	samples, splits := []uint32{0, 1, 2, 3}, []int{2, 2, 2, 2}
	for epoch := uint64(1); epoch <= 2; epoch++ {
		if _, err := c.FetchBatch(context.Background(), samples, splits, epoch); err != nil {
			t.Fatal(err)
		}
		if got := srv.Counters().PlaneBytes.Load(); got != want {
			t.Fatalf("epoch %d: %d plane bytes for %d objects, want %d", epoch, got, k, want)
		}
	}
}

// TestRawFetchesFillNoPlanes: fetches at split 0 — whole, withholding a
// scan, and row-sliced — run no executor and decode nothing; the first
// offload of an object fills its slot.
func TestRawFetchesFillNoPlanes(t *testing.T) {
	const n = 4
	st := progressiveStore(t, n)
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: decodedPipe(), Cores: 2})
	c := dial()
	samples := []uint32{0, 1, 2, 3}
	for _, d := range []int{0, Rows, PackDirective(0, 1), PackDirective(0, 1) | Rows} {
		if _, err := c.FetchBatch(context.Background(), samples, []int{d, d, d, d}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got, pb := srv.exec.wholeDecodes.Load(), srv.Counters().PlaneBytes.Load(); got != 0 || pb != 0 {
		t.Fatalf("raw fetches decoded %d objects whole into %d plane bytes", got, pb)
	}
	for s := range n {
		if st.slot(uint32(s)).planes != nil {
			t.Fatalf("a raw fetch filled sample %d's planes", s)
		}
	}
	if _, err := FetchOne(context.Background(), c, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := srv.exec.wholeDecodes.Load(); got != 1 || st.slot(2).planes == nil {
		t.Fatalf("after one offload: %d whole decodes, planes %v", got, st.slot(2).planes != nil)
	}
}

// TestCorruptUnitServesThroughCropDecode: a stored object with a flipped
// byte in its last unit, which the crop of the chosen epoch does not read,
// fails the whole decode (a scan's CRC shows it), so its slot stays empty
// and its crops decode the object as they would with no slot: cut-2 and
// cut-5 fetches are served, equal to the local pipeline's over the intact
// object, while cut 1, a whole decode, fails as it would uncached. The
// failed decode is not retried.
func TestCorruptUnitServesThroughCropDecode(t *testing.T) {
	p := decodedPipe()
	set := testImageSet(t, 16)
	var id uint32
	var epoch uint64
	var raw, corrupt []byte
	for s := 0; s < set.N() && corrupt == nil; s++ {
		orig, err := set.Raw(s)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), orig...)
		bad[len(bad)-1] ^= 0x80 // a code bit of the last unit of the last scan
		if _, err := imaging.Decode(bad); err == nil {
			t.Fatalf("sample %d: a flipped code bit decodes", s)
		}
		for e := uint64(1); e <= 20; e++ {
			seed := pipeline.Seed{Job: 42, Epoch: e, Sample: uint64(s)}
			want, err := p.Run(orig, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Run(bad, seed)
			if err == nil && got.Equal(want) { // this epoch's crop does not read the last unit
				id, epoch, raw, corrupt = uint32(s), e, orig, bad
			}
			want.Release()
			if err == nil {
				got.Release()
			}
			if corrupt != nil {
				break
			}
		}
	}
	if corrupt == nil {
		t.Fatal("no sample and epoch whose crop misses the last unit")
	}
	objects, err := set.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	objects[id] = corrupt
	st, err := NewStore("corrupt", objects)
	if err != nil {
		t.Fatal(err)
	}
	srv, dial := startServer(t, ServerConfig{Store: st, Pipeline: p, Cores: 2})
	c := dial()
	for range 2 {
		for _, cut := range []int{2, p.Len()} {
			r, err := FetchOne(context.Background(), c, id, cut, epoch)
			if err != nil {
				t.Fatal(err)
			}
			finishLocally(t, p, raw, r, cut, epoch)
		}
	}
	if r, err := FetchOne(context.Background(), c, id, 1, epoch); err == nil && r.Err == nil {
		t.Fatal("cut 1 of an object Decode refuses was served")
	}
	if got := srv.exec.wholeDecodes.Load(); got != 1 || st.slot(id).planes != nil {
		t.Fatalf("%d whole decodes, planes cached %v: want one failed decode, nothing cached", got, st.slot(id).planes != nil)
	}
}
