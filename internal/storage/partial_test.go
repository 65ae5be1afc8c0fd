package storage

import (
	"context"
	"errors"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/wire"
)

func TestNewPartialStoreValidation(t *testing.T) {
	if _, err := NewPartialStore("p", 0, 0, 1, map[uint32][]byte{0: {1}}); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewPartialStore("p", 4, 0, 1, nil); err == nil {
		t.Error("accepted empty ownership")
	}
	if _, err := NewPartialStore("p", 4, 0, 1, map[uint32][]byte{4: {1}}); err == nil {
		t.Error("accepted out-of-range sample")
	}
	if _, err := NewPartialStore("p", 4, 0, 1, map[uint32][]byte{1: {}}); err == nil {
		t.Error("accepted empty object")
	}
	if _, err := NewPartialStore("p", 4, 2, 2, map[uint32][]byte{1: {1}}); err == nil {
		t.Error("accepted shard 2 of 2")
	}
}

func TestPartialStoreFacts(t *testing.T) {
	st, err := NewPartialStore("p", 5, 1, 2, map[uint32][]byte{1: {0xA}, 3: {0xB, 0xC}})
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 5 {
		t.Errorf("N = %d, want the global 5", st.N())
	}
	if st.shard != 1 || st.shards != 2 {
		t.Errorf("shard %d of %d, want 1 of 2", st.shard, st.shards)
	}
	if st.Owned() != 2 || st.TotalBytes() != 3 {
		t.Errorf("owned %d, bytes %d", st.Owned(), st.TotalBytes())
	}
	if b, err := st.Get(3); err != nil || len(b) != 2 {
		t.Errorf("Get(3) = %v, %v", b, err)
	}
	for _, id := range []uint32{0, 2, 4} {
		if _, err := st.Get(id); !errors.Is(err, errNotFound) {
			t.Errorf("Get(%d) err = %v, want ErrNotFound", id, err)
		}
	}
	// Full stores own everything.
	full := testStore(t, 3)
	if full.Owned() != 3 || full.shard != 0 || full.shards != 1 {
		t.Errorf("full store owns %d of 3 as shard %d of %d", full.Owned(), full.shard, full.shards)
	}
}

// TestServerOnPartialStore: a shard server reports the GLOBAL dataset size
// and its own place in the tier in its handshake but serves only owned
// samples; unowned ones come back as the permanent not-found status, not a
// transport error.
func TestServerOnPartialStore(t *testing.T) {
	full := testStore(t, 4)
	own := map[uint32][]byte{}
	for _, id := range []uint32{1, 3} {
		b, err := full.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		own[id] = b
	}
	st, err := NewPartialStore("p", 4, 1, 2, own)
	if err != nil {
		t.Fatal(err)
	}
	_, dial := startServer(t, ServerConfig{
		Store:    st,
		Pipeline: pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: -1}),
	})
	c := dial()
	if tier := c.Tier(); tier.Samples != 4 || tier.Shard != 1 || tier.Shards != 2 {
		t.Fatalf("handshake states %+v, want the global 4 samples and shard 1 of 2", tier)
	}
	ctx := context.Background()
	res, err := FetchOne(ctx, c, 3, 0, 1)
	if err != nil || res.Status != wire.FetchOK {
		t.Fatalf("owned fetch: %v, %v", res.Status, err)
	}
	if _, err := FetchOne(ctx, c, 2, 0, 1); !errors.Is(err, ErrSampleMissing) {
		t.Fatalf("unowned fetch err = %v, want ErrSampleMissing", err)
	}
}
