package storage

import (
	"context"
	"errors"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/wire"
)

func TestNewPartialStoreValidation(t *testing.T) {
	if _, err := NewPartialStore("p", 0, map[uint32][]byte{0: {1}}); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewPartialStore("p", 4, nil); err == nil {
		t.Error("accepted empty ownership")
	}
	if _, err := NewPartialStore("p", 4, map[uint32][]byte{4: {1}}); err == nil {
		t.Error("accepted out-of-range sample")
	}
	if _, err := NewPartialStore("p", 4, map[uint32][]byte{1: {}}); err == nil {
		t.Error("accepted empty object")
	}
}

func TestPartialStoreFacts(t *testing.T) {
	st, err := NewPartialStore("p", 5, map[uint32][]byte{1: {0xA}, 3: {0xB, 0xC}})
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 5 {
		t.Errorf("N = %d, want the global 5", st.N())
	}
	if st.Owned() != 2 || st.TotalBytes() != 3 {
		t.Errorf("owned %d, bytes %d", st.Owned(), st.TotalBytes())
	}
	if b, err := st.Get(3); err != nil || len(b) != 2 {
		t.Errorf("Get(3) = %v, %v", b, err)
	}
	for _, id := range []uint32{0, 2, 4} {
		if _, err := st.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%d) err = %v, want ErrNotFound", id, err)
		}
	}
	// Full stores own everything.
	full := testStore(t, 3)
	if full.Owned() != 3 {
		t.Errorf("full store owns %d of 3", full.Owned())
	}
}

// TestServerOnPartialStore: a shard server reports the GLOBAL dataset size
// in its handshake but serves only owned samples; unowned ones come back as
// the permanent not-found status, not a transport error.
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
	st, err := NewPartialStore("p", 4, own)
	if err != nil {
		t.Fatal(err)
	}
	_, dial := startServer(t, ServerConfig{
		Store:    st,
		Pipeline: pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: -1}),
	})
	c := dial()
	if c.NumSamples() != 4 {
		t.Fatalf("handshake NumSamples = %d, want the global 4", c.NumSamples())
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
