package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestFetchBatchRoundTrip(t *testing.T) {
	in := &FetchBatch{
		RequestID:   9,
		Epoch:       3,
		PlanVersion: 2,
		Items: []FetchBatchItem{
			{Sample: 1, Split: 0},
			{Sample: 7, Split: 2},
			{Sample: 42, Split: 5},
		},
	}
	got := roundTrip(t, in).(*FetchBatch)
	if got.RequestID != 9 || got.Epoch != 3 || got.PlanVersion != 2 || len(got.Items) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range in.Items {
		if got.Items[i] != in.Items[i] {
			t.Fatalf("item %d: %+v != %+v", i, got.Items[i], in.Items[i])
		}
	}
}

func TestFetchBatchEmpty(t *testing.T) {
	got := roundTrip(t, &FetchBatch{RequestID: 1}).(*FetchBatch)
	if len(got.Items) != 0 {
		t.Fatalf("got %d items", len(got.Items))
	}
}

func TestFetchBatchRespRoundTrip(t *testing.T) {
	in := &FetchBatchResp{
		RequestID: 11,
		Items: []FetchBatchRespItem{
			{Sample: 1, Split: 0, Status: FetchOK, Artifact: []byte{1, 2, 3}},
			{Sample: 2, Split: 2, Status: FetchNotFound, Artifact: nil},
			{Sample: 3, Split: 5, Status: FetchOK, Artifact: bytes.Repeat([]byte{7}, 1000)},
		},
	}
	got := roundTrip(t, in).(*FetchBatchResp)
	if got.RequestID != 11 || len(got.Items) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range in.Items {
		a, b := got.Items[i], in.Items[i]
		if a.Sample != b.Sample || a.Split != b.Split || a.Status != b.Status || !bytes.Equal(a.Artifact, b.Artifact) {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestFetchBatchRejectsOversized(t *testing.T) {
	items := make([]FetchBatchItem, MaxBatchItems+1)
	var buf bytes.Buffer
	if err := Write(&buf, &FetchBatch{RequestID: 1, Items: items}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("accepted oversized batch")
	}
}

func TestFetchBatchCorruptPayloads(t *testing.T) {
	mk := rawFrame // valid checksum: the payload check is what rejects
	declareN := func(size, n int) []byte {
		p := make([]byte, size)
		binary.BigEndian.PutUint16(p[20:22], uint16(n))
		return p
	}
	declareRespN := func(size, n int) []byte {
		p := make([]byte, size)
		binary.BigEndian.PutUint16(p[8:10], uint16(n))
		return p
	}
	cases := map[string][]byte{
		"batch short header":    mk(TypeFetchBatch, make([]byte, 10)),
		"batch wrong item size": mk(TypeFetchBatch, declareN(24, 3)),
		"batch 5-byte items":    mk(TypeFetchBatch, declareN(22+5*3, 3)),
		"batch trailing byte":   mk(TypeFetchBatch, declareN(22+6*3+1, 3)),
		"batch over the cap":    mk(TypeFetchBatch, declareN(22+6*(MaxBatchItems+1), MaxBatchItems+1)),
		"resp short header":     mk(TypeFetchBatchResp, make([]byte, 5)),
		"resp truncated item":   mk(TypeFetchBatchResp, declareRespN(12, 1)),
		"resp bad artifact len": mk(TypeFetchBatchResp, func() []byte {
			p := declareRespN(20, 1)
			binary.BigEndian.PutUint32(p[16:20], 500)
			return p
		}()),
		"resp trailing junk": mk(TypeFetchBatchResp, declareRespN(25, 1)),
	}
	for name, frame := range cases {
		if _, err := Read(bytes.NewReader(frame)); err == nil {
			t.Errorf("Read accepted %s", name)
		}
	}
}

// Property: batches of arbitrary items round-trip exactly.
func TestFetchBatchRoundTripProperty(t *testing.T) {
	f := func(req, epoch uint64, samples []uint32) bool {
		if len(samples) > MaxBatchItems {
			samples = samples[:MaxBatchItems]
		}
		in := &FetchBatch{RequestID: req, Epoch: epoch}
		for i, s := range samples {
			in.Items = append(in.Items, FetchBatchItem{Sample: s, Split: uint8(i % 6), Fidelity: uint8(s % 3)})
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*FetchBatch)
		if !ok || got.RequestID != req || got.Epoch != epoch || len(got.Items) != len(in.Items) {
			return false
		}
		for i := range in.Items {
			if got.Items[i] != in.Items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
