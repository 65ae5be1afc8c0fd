package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write %T: %v", m, err)
	}
	if buf.Len() != FrameSize(m) {
		t.Fatalf("FrameSize(%T) = %d, wrote %d", m, FrameSize(m), buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read %T: %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%T left %d trailing bytes", m, buf.Len())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{Version: 1, JobID: 0xDEADBEEF}).(*Hello)
	if got.Version != 1 || got.JobID != 0xDEADBEEF {
		t.Fatalf("got %+v", got)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	got := roundTrip(t, &HelloAck{Version: 1, DatasetName: "openimages-12g", NumSamples: 40000}).(*HelloAck)
	if got.DatasetName != "openimages-12g" || got.NumSamples != 40000 {
		t.Fatalf("got %+v", got)
	}
}

func TestHelloAckEmptyName(t *testing.T) {
	got := roundTrip(t, &HelloAck{Version: 1}).(*HelloAck)
	if got.DatasetName != "" {
		t.Fatalf("got %+v", got)
	}
}

// one and oneResp build the single-sample round trip: a batch of one.
func one(reqID uint64, it FetchBatchItem, epoch uint64, planVersion uint32) *FetchBatch {
	return &FetchBatch{RequestID: reqID, Epoch: epoch, PlanVersion: planVersion, Items: []FetchBatchItem{it}}
}

func oneResp(reqID uint64, it FetchBatchRespItem) *FetchBatchResp {
	return &FetchBatchResp{RequestID: reqID, Items: []FetchBatchRespItem{it}}
}

func TestFetchRoundTrip(t *testing.T) {
	in := one(7, FetchBatchItem{Sample: 12345, Split: 2, Fidelity: 1}, 9, 3)
	got := roundTrip(t, in).(*FetchBatch)
	if got.RequestID != 7 || got.Epoch != 9 || got.PlanVersion != 3 || len(got.Items) != 1 || got.Items[0] != in.Items[0] {
		t.Fatalf("got %+v", got)
	}
}

func TestFetchRespRoundTrip(t *testing.T) {
	art := []byte{1, 2, 3, 4, 5}
	got := roundTrip(t, oneResp(8, FetchBatchRespItem{Sample: 3, Split: 4, Status: FetchOK, Artifact: art})).(*FetchBatchResp)
	if it := got.Items[0]; got.RequestID != 8 || !bytes.Equal(it.Artifact, art) || it.Status != FetchOK || it.Split != 4 || it.Sample != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestFetchRespEmptyArtifact(t *testing.T) {
	got := roundTrip(t, oneResp(1, FetchBatchRespItem{Status: FetchNotFound})).(*FetchBatchResp)
	if it := got.Items[0]; len(it.Artifact) != 0 || it.Status != FetchNotFound {
		t.Fatalf("got %+v", got)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	req := roundTrip(t, &StatsReq{RequestID: 42}).(*StatsReq)
	if req.RequestID != 42 {
		t.Fatalf("got %+v", req)
	}
	got := roundTrip(t, &StatsResp{RequestID: 42, SamplesServed: 1, OpsExecuted: 2, BytesSent: 3, ServerCPUNanos: 4}).(*StatsResp)
	if got.RequestID != 42 || got.SamplesServed != 1 || got.OpsExecuted != 2 || got.BytesSent != 3 || got.ServerCPUNanos != 4 {
		t.Fatalf("got %+v", got)
	}
}

func TestErrorRespRoundTrip(t *testing.T) {
	got := roundTrip(t, &ErrorResp{RequestID: 9, Code: CodeBadRequest, Message: "nope"}).(*ErrorResp)
	if got.RequestID != 9 || got.Code != CodeBadRequest || got.Message != "nope" {
		t.Fatalf("got %+v", got)
	}
}

func TestSequentialMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{Version: 1, JobID: 2},
		one(1, FetchBatchItem{Sample: 2, Split: 3}, 4, 0),
		&StatsReq{},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("message %d type %s, want %s", i, got.Type(), want.Type())
		}
	}
}

// rawFrame assembles a frame by hand — including a valid checksum — so
// decode-level rejections can be exercised without the real encoder.
func rawFrame(mt MsgType, payload []byte) []byte {
	b := make([]byte, HeaderSize+len(payload))
	binary.BigEndian.PutUint32(b[0:4], Magic)
	b[4] = uint8(mt)
	b[5] = FlagChecksum
	binary.BigEndian.PutUint32(b[6:10], uint32(len(payload)))
	copy(b[HeaderSize:], payload)
	crc := crc32.Update(0, crc32.MakeTable(crc32.Castagnoli), b[4:10])
	crc = crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), payload)
	binary.BigEndian.PutUint32(b[10:14], crc)
	return b
}

func TestReadRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, &StatsReq{})
	b := buf.Bytes()
	b[0] = 'X'
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsUnknownType(t *testing.T) {
	// The checksum must be valid so the unknown-type check is what fires.
	// 3 and 4 carried a single-sample fetch pair before the batch became the
	// only round trip; their old payload sizes must not decode as anything.
	for mt, size := range map[MsgType]int{200: 8, 3: 25, 4: 18, 0: 0, 11: 16} {
		b := rawFrame(mt, make([]byte, size))
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("type %d: err = %v", mt, err)
		}
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	b := make([]byte, HeaderSize)
	binary.BigEndian.PutUint32(b[0:4], Magic)
	b[4] = uint8(TypeFetchBatch)
	binary.BigEndian.PutUint32(b[6:10], MaxFrameSize+1)
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v", err)
	}
}

// TestReadRejectsCorruption flips every byte of a frame in turn (except the
// magic, whose corruption is reported as ErrBadMagic, and the length field,
// which desyncs framing): each flip must surface as a typed error — almost
// always ErrChecksum — and never as a successfully decoded message.
func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, oneResp(3, FetchBatchRespItem{Sample: 9, Status: FetchOK, Artifact: []byte{1, 2, 3, 4}})); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	for i := range pristine {
		if i >= 6 && i < 10 {
			continue // length field: corruption shifts framing, tested elsewhere
		}
		b := append([]byte(nil), pristine...)
		b[i] ^= 0x40
		msg, err := Read(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("flip at byte %d decoded silently as %s", i, msg.Type())
		}
		if i >= 4 && !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d: err = %v, want ErrChecksum", i, err)
		}
	}
	// The pristine frame still parses — the loop above didn't depend on a
	// broken fixture.
	if _, err := Read(bytes.NewReader(pristine)); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

func TestReadTruncatedHeaderAndPayload(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, one(1, FetchBatchItem{}, 0, 0))
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:5])); err == nil {
		t.Fatal("accepted truncated header")
	}
	if _, err := Read(bytes.NewReader(full[:len(full)-2])); err == nil {
		t.Fatal("accepted truncated payload")
	}
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream err = %v, want EOF", err)
	}
}

func TestDecodeRejectsWrongPayloadSizes(t *testing.T) {
	// Craft frames whose declared type disagrees with payload length; the
	// checksums are valid so the decode check is what rejects them.
	mk := rawFrame
	declareItems := func(size, n int) []byte {
		p := make([]byte, size)
		binary.BigEndian.PutUint16(p[20:22], uint16(n))
		return p
	}
	cases := map[string][]byte{
		"hello short":     mk(TypeHello, make([]byte, 3)),
		"fetch long":      mk(TypeFetchBatch, declareItems(29, 1)),
		"fetch short":     mk(TypeFetchBatch, declareItems(27, 1)),
		"stats wrong":     mk(TypeStatsResp, make([]byte, 39)),
		"statsreq extra":  mk(TypeStatsReq, make([]byte, 9)),
		"helloack short":  mk(TypeHelloAck, make([]byte, 4)),
		"error short":     mk(TypeError, make([]byte, 10)),
		"fetchresp short": mk(TypeFetchBatchResp, make([]byte, 9)),
		"helloack bad len": mk(TypeHelloAck, func() []byte {
			p := make([]byte, 9)
			binary.BigEndian.PutUint16(p[6:8], 100) // claims 100-byte name
			return p
		}()),
		"fetchresp bad len": mk(TypeFetchBatchResp, func() []byte {
			p := make([]byte, 21)
			binary.BigEndian.PutUint16(p[8:10], 1)
			binary.BigEndian.PutUint32(p[16:20], 999)
			return p
		}()),
	}
	for name, frame := range cases {
		if _, err := Read(bytes.NewReader(frame)); err == nil {
			t.Errorf("Read accepted %s", name)
		}
	}
}

func TestFetchRespArtifactIsCopied(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, oneResp(1, FetchBatchRespItem{Artifact: []byte{1, 2, 3}}))
	raw := buf.Bytes()
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp := got.(*FetchBatchResp)
	raw[len(raw)-1] = 99 // mutate the backing buffer
	if resp.Items[0].Artifact[2] != 3 {
		t.Fatal("decoded artifact aliases the read buffer")
	}
}

// Property: every single-sample directive round-trips exactly.
func TestFetchRoundTripProperty(t *testing.T) {
	f := func(req uint64, sample uint32, split, fidelity uint8, epoch uint64, planVersion uint32) bool {
		var buf bytes.Buffer
		in := one(req, FetchBatchItem{Sample: sample, Split: split, Fidelity: fidelity}, epoch, planVersion)
		if err := Write(&buf, in); err != nil || buf.Len() != HeaderSize+28 {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*FetchBatch)
		return ok && got.RequestID == req && got.Epoch == epoch && got.PlanVersion == planVersion &&
			len(got.Items) == 1 && got.Items[0] == in.Items[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single-sample response round-trips arbitrary artifact bytes.
func TestFetchRespRoundTripProperty(t *testing.T) {
	f := func(req uint64, sample uint32, status uint8, artifact []byte) bool {
		var buf bytes.Buffer
		in := oneResp(req, FetchBatchRespItem{Sample: sample, Status: FetchStatus(status % 4), Artifact: artifact})
		if err := Write(&buf, in); err != nil || buf.Len() != HeaderSize+20+len(artifact) {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*FetchBatchResp)
		return ok && got.RequestID == req && len(got.Items) == 1 && got.Items[0].Sample == sample &&
			got.Items[0].Status == in.Items[0].Status && bytes.Equal(got.Items[0].Artifact, artifact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt, want := range map[MsgType]string{
		TypeHello: "Hello", TypeHelloAck: "HelloAck", TypeFetchBatch: "FetchBatch",
		TypeFetchBatchResp: "FetchBatchResp", TypeStatsReq: "StatsReq",
		TypeStatsResp: "StatsResp", TypeError: "Error", TypeRetryAfter: "RetryAfter",
		MsgType(3): "MsgType(3)", MsgType(4): "MsgType(4)", MsgType(99): "MsgType(99)",
	} {
		if mt.String() != want {
			t.Errorf("MsgType(%d).String() = %q", mt, mt.String())
		}
	}
}
