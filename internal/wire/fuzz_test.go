package wire

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip drives the codec from the message side: arbitrary field
// values — including multi-item batches, whose response reassembly slices one
// artifact pool into per-item payloads — must encode and decode losslessly.
// FuzzRead/FuzzDecode fuzz the parser with raw bytes; this target fuzzes the
// encoder with raw values, so the two meet in the middle.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), uint8(3), uint64(4), []byte("artifact"), uint8(2), "dataset")
	f.Add(uint64(0), uint32(0), uint8(0), uint64(0), []byte{}, uint8(0), "") // zero-item batch
	f.Add(^uint64(0), ^uint32(0), uint8(255), ^uint64(0), bytes.Repeat([]byte{0xA5}, 300), uint8(MaxBatchItems), "x")
	f.Add(uint64(7), uint32(9), uint8(1), uint64(3), []byte{1, 2, 3}, uint8(1), "one") // the single-sample round trip

	f.Fuzz(func(t *testing.T, reqID uint64, sample uint32, split uint8, epoch uint64, artifact []byte, items uint8, name string) {
		check := func(m Message) Message {
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				if len(artifact) > maxFrameSize/2 {
					return nil // oversized frames may legitimately be refused
				}
				t.Fatalf("Write %T: %v", m, err)
			}
			if buf.Len() != FrameSize(m) {
				t.Fatalf("%T: FrameSize %d, encoder wrote %d", m, FrameSize(m), buf.Len())
			}
			out, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read %T: %v", m, err)
			}
			if buf.Len() != 0 {
				t.Fatalf("%T left %d trailing bytes", m, buf.Len())
			}
			return out
		}

		if len(name) <= 0xFFFF {
			in := &HelloAck{Version: uint16(reqID), DatasetName: name, NumSamples: sample,
				Ops: name, Crop: uint16(sample), FlipP: float64(epoch), Cores: uint16(reqID), Slowdown: float64(sample),
				Shard: uint16(epoch), Shards: uint16(sample)}
			got := check(in).(*HelloAck)
			if *got != *in {
				t.Fatalf("HelloAck %+v -> %+v", in, got)
			}
		}

		// Batch request and response: n items sliced out of the artifact
		// bytes so each item carries a distinct payload, exercising the
		// reassembly offsets item by item.
		n := int(items) % (MaxBatchItems + 1)
		req := &FetchBatch{RequestID: reqID, Epoch: epoch, Items: make([]FetchBatchItem, n)}
		resp := &FetchBatchResp{RequestID: reqID, Items: make([]FetchBatchRespItem, n)}
		for i := 0; i < n; i++ {
			req.Items[i] = FetchBatchItem{Sample: sample + uint32(i), Split: split + uint8(i), Fidelity: (split + uint8(i)) % 4}
			var part []byte
			if len(artifact) > 0 {
				lo := i * len(artifact) / n
				hi := (i + 1) * len(artifact) / n
				part = artifact[lo:hi]
			}
			resp.Items[i] = FetchBatchRespItem{
				Sample: sample + uint32(i), Split: split + uint8(i),
				Status: FetchStatus(uint8(i) % 4), Artifact: part,
			}
		}
		gotReq := check(req).(*FetchBatch)
		if gotReq.RequestID != req.RequestID || gotReq.Epoch != req.Epoch || len(gotReq.Items) != n {
			t.Fatalf("FetchBatch %+v -> %+v", req, gotReq)
		}
		for i := range req.Items {
			if gotReq.Items[i] != req.Items[i] {
				t.Fatalf("FetchBatch item %d: %+v -> %+v", i, req.Items[i], gotReq.Items[i])
			}
		}
		gotResp := check(resp).(*FetchBatchResp)
		if gotResp == nil {
			return
		}
		if gotResp.RequestID != resp.RequestID || len(gotResp.Items) != n {
			t.Fatalf("FetchBatchResp %+v -> %+v", resp, gotResp)
		}
		for i := range resp.Items {
			a, b := resp.Items[i], gotResp.Items[i]
			if a.Sample != b.Sample || a.Split != b.Split || a.Status != b.Status || !bytes.Equal(a.Artifact, b.Artifact) {
				t.Fatalf("FetchBatchResp item %d: %+v -> %+v", i, a, b)
			}
		}
	})
}

// seedBatches adds the batch sizes at the edges — none, one (the
// single-sample round trip) and MaxBatchItems — and well-formed frames of the
// unassigned types 3 and 4, which the parser must refuse as errUnknownType
// (TestReadRejectsUnknownType) however plausible their payloads.
func seedBatches(f *testing.F) {
	for _, n := range []int{0, 1, MaxBatchItems} {
		req := &FetchBatch{RequestID: 3, Epoch: 2, Items: make([]FetchBatchItem, n)}
		resp := &FetchBatchResp{RequestID: 3, Items: make([]FetchBatchRespItem, n)}
		for i := 0; i < n; i++ {
			req.Items[i] = FetchBatchItem{Sample: uint32(i), Split: uint8(i % 6), Fidelity: uint8(i % 3)}
			resp.Items[i] = FetchBatchRespItem{Sample: uint32(i), Split: uint8(i % 6), Artifact: []byte{byte(i)}}
		}
		for _, m := range []Message{req, resp} {
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add(rawFrame(3, make([]byte, 25)))
	f.Add(rawFrame(4, make([]byte, 18)))
}

// FuzzRead throws arbitrary bytes at the frame parser: it must never panic,
// and any frame it accepts must re-encode to the same bytes.
func FuzzRead(f *testing.F) {
	seed := func(m Message) {
		var buf bytes.Buffer
		if err := Write(&buf, m); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(&Hello{Version: 1, JobID: 7})
	seed(&HelloAck{Version: 1, DatasetName: "openimages", NumSamples: 40000})
	seed(&StatsReq{RequestID: 5})
	seed(&StatsResp{RequestID: 5, SamplesServed: 10, BytesSent: 20})
	seed(&ErrorResp{RequestID: 6, Code: CodeBadRequest, Message: "no"})
	seed(&FetchBatch{RequestID: 1, Epoch: 2, Items: []FetchBatchItem{{Sample: 1, Split: 2}}})
	seed(&FetchBatch{RequestID: 1, Epoch: 2, Items: []FetchBatchItem{{Sample: 1}, {Sample: 2, Fidelity: 3}}})
	seed(&FetchBatchResp{RequestID: 1, Items: []FetchBatchRespItem{{Sample: 1, Artifact: []byte{9}}}})
	seed(&RetryAfter{RequestID: 7, Millis: 50, Queued: 12})
	seedBatches(f)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded message failed to parse: %v", err)
		}
		if again.Type() != msg.Type() {
			t.Fatalf("type changed across round trip: %s -> %s", msg.Type(), again.Type())
		}
	})
}

// FuzzDecode checks the codec is canonical: any frame the parser accepts
// must re-encode to a stable fixed point — encoding, re-parsing, and
// encoding again yields byte-identical frames — and FrameSize must agree
// with the bytes actually produced. The multiplexer trusts FrameSize for
// traffic accounting, so drift here silently corrupts the byte counters.
func FuzzDecode(f *testing.F) {
	seed := func(m Message) {
		var buf bytes.Buffer
		if err := Write(&buf, m); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(&Hello{Version: Version, JobID: 1})
	seed(&HelloAck{Version: Version, DatasetName: "d", NumSamples: 3, Ops: "Decode", Crop: 24, FlipP: 0.5, Cores: 1, Slowdown: 1, Shards: 1})
	seed(&FetchBatch{RequestID: 2, Epoch: 1, Items: []FetchBatchItem{{Sample: 4}, {Sample: 5, Split: 1}}})
	seed(&FetchBatch{RequestID: 2, Epoch: 1, Items: []FetchBatchItem{{Sample: 4, Fidelity: 2}, {Sample: 5, Split: 1}}})
	seed(&FetchBatchResp{RequestID: 2, Items: []FetchBatchRespItem{{Sample: 4, Status: FetchOK, Artifact: []byte{1}}}})
	seed(&StatsReq{RequestID: 3})
	seed(&StatsResp{RequestID: 3, OpsExecuted: 11, ServerCPUNanos: 12})
	seed(&ErrorResp{Code: CodeInternal, Message: "boom"})
	seed(&RetryAfter{RequestID: 4, Millis: 25, Queued: 3})
	seedBatches(f)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, msg); err != nil {
			t.Fatalf("accepted message failed to encode: %v", err)
		}
		if got, want := first.Len(), FrameSize(msg); got != want {
			t.Fatalf("FrameSize says %d, encoder wrote %d bytes", want, got)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical frame failed to parse: %v", err)
		}
		var second bytes.Buffer
		if err := Write(&second, again); err != nil {
			t.Fatalf("re-parsed message failed to encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding not canonical:\n first %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}
