// Package wire defines the binary protocol between the compute-node client
// and the storage server (the paper used gRPC; this is a dependency-free
// framed equivalent). Each frame is: 4-byte magic, 1-byte message type,
// 1-byte flags, 4-byte big-endian payload length, 4-byte CRC32-C checksum
// over the type, flags, length, and payload, then the payload.
//
// The checksum turns silent corruption on the link into ErrChecksum, a
// typed transport-level error: a corrupted frame can tear the session down
// and be retried, but can never decode into a wrong artifact.
//
// A connection is a multiplexed session: after the Hello / HelloAck
// handshake every request and response carries a RequestID, responses to
// distinct requests MAY arrive in any order, and a client correlates them by
// RequestID alone. A server is free to process requests from one connection
// concurrently and write whichever response finishes first. RequestID 0 is
// reserved for connection-level messages (the handshake and fatal ErrorResp
// frames that are not tied to a specific request).
//
// There is one fetch round trip: a FetchBatch of 1..MaxBatchItems offload
// directives — sample, the number of pipeline ops the server should execute
// before replying, the progressive refinement scans to withhold and, in the
// same byte, whether to ship only the rows the epoch's crop reads — plus the
// epoch, so the server derives the exact augmentation seeds (and crop) the
// client would have used locally, answered by one FetchBatchResp (or a
// RetryAfter when admission control sheds it). A fetch is a pure function of
// (job, epoch, sample, directive): no plan state crosses the wire, so
// requests issued under different plans share a session, and a server,
// freely.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/bufpool"
)

// Protocol constants.
const (
	magic = 0x534F5048 // "SOPH"
	// Version is the only protocol generation a peer speaks; a Hello carrying
	// any other is answered with an ErrorResp. 7's FetchBatch carried a
	// plan version; 8's cut 1 shipped the decoded image, not its planes.
	Version = 9
	// frameHeader is the on-wire frame-header length: magic (4), type (1),
	// flags (1), payload length (4), CRC32-C (4).
	frameHeader  = 14
	maxFrameSize = 64 << 20 // generous bound: a 224² tensor is ~600 KB
	// flagChecksum marks a frame whose header carries a CRC32-C over the
	// type, flags, length, and payload. Every frame this package writes sets
	// it; Read verifies the checksum unconditionally, so the flag is
	// self-description for wire sniffers, not an opt-out.
	flagChecksum = 0x01
)

// castagnoli is the CRC32-C table used for frame checksums (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MsgType identifies a frame's payload structure.
type MsgType uint8

// Message types. 3 and 4 are unassigned: Read rejects them like any other
// unknown type.
const (
	typeHello          MsgType = 1
	typeHelloAck       MsgType = 2
	typeStatsReq       MsgType = 5
	typeStatsResp      MsgType = 6
	typeError          MsgType = 7
	typeFetchBatch     MsgType = 8
	typeFetchBatchResp MsgType = 9
	typeRetryAfter     MsgType = 10
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case typeHello:
		return "Hello"
	case typeHelloAck:
		return "HelloAck"
	case typeStatsReq:
		return "StatsReq"
	case typeStatsResp:
		return "StatsResp"
	case typeError:
		return "Error"
	case typeFetchBatch:
		return "FetchBatch"
	case typeFetchBatchResp:
		return "FetchBatchResp"
	case typeRetryAfter:
		return "RetryAfter"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Protocol errors.
var (
	errBadMagic    = errors.New("wire: bad magic")
	errFrameTooBig = errors.New("wire: frame exceeds MaxFrameSize")
	errTruncated   = errors.New("wire: truncated payload")
	errUnknownType = errors.New("wire: unknown message type")
	// ErrChecksum reports a frame whose CRC32-C does not match its contents:
	// the bytes were corrupted in flight. It is a transport-level error — the
	// session is poisoned and the request retryable — never an application
	// rejection, so a retry layer must treat it like a broken connection.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
)

// Message is any protocol message. Encoding is split into an exact size
// query plus an append-style serializer so Write can frame a message into a
// single pooled buffer without any per-message allocation.
type Message interface {
	Type() MsgType
	// payloadSize returns the exact number of bytes appendPayload will add.
	payloadSize() int
	// appendPayload appends the encoded payload to p and returns it.
	appendPayload(p []byte) []byte
	decodePayload(p []byte) error
}

// Hello opens a session.
type Hello struct {
	Version uint16
	JobID   uint64
}

// HelloAck answers a Hello with the facts of the server's tier: its
// dataset, the pipeline it serves (Ops, Crop and FlipP, as
// pipeline.Fingerprint states them), its preprocessing cores and CPU
// slowdown, and which shard of how many shards it serves.
type HelloAck struct {
	Version     uint16
	DatasetName string
	NumSamples  uint32
	Ops         string
	Crop        uint16
	FlipP       float64
	Cores       uint16
	Slowdown    float64
	Shard       uint16
	Shards      uint16
}

// FetchStatus reports the outcome of one item of a FetchBatch.
type FetchStatus uint8

// Fetch outcomes.
const (
	FetchOK FetchStatus = iota
	FetchNotFound
	FetchBadSplit
	FetchFailed
)

// StatsReq asks the server for its counters.
type StatsReq struct {
	RequestID uint64
}

// StatsResp reports server-side accounting.
type StatsResp struct {
	RequestID      uint64
	SamplesServed  uint64
	OpsExecuted    uint64
	BytesSent      uint64
	ServerCPUNanos uint64
}

// ErrCode classifies server errors.
type ErrCode uint16

// Error codes.
const (
	CodeBadRequest ErrCode = iota + 1
	CodeInternal
)

// ErrorResp reports a protocol-level failure. RequestID ties the error to a
// specific in-flight request; 0 means the whole connection is poisoned (bad
// handshake, unparseable frame) and the peer should tear it down.
type ErrorResp struct {
	RequestID uint64
	Code      ErrCode
	Message   string
}

func (*Hello) Type() MsgType     { return typeHello }
func (*HelloAck) Type() MsgType  { return typeHelloAck }
func (*StatsReq) Type() MsgType  { return typeStatsReq }
func (*StatsResp) Type() MsgType { return typeStatsResp }
func (*ErrorResp) Type() MsgType { return typeError }

func (m *Hello) payloadSize() int { return 10 }

func (m *Hello) appendPayload(p []byte) []byte {
	var b [10]byte
	binary.BigEndian.PutUint16(b[0:2], m.Version)
	binary.BigEndian.PutUint64(b[2:10], m.JobID)
	return append(p, b[:]...)
}

func (m *Hello) decodePayload(p []byte) error {
	if len(p) != 10 {
		return errTruncated
	}
	m.Version = binary.BigEndian.Uint16(p[0:2])
	m.JobID = binary.BigEndian.Uint64(p[2:10])
	return nil
}

func (m *HelloAck) payloadSize() int { return 34 + len(m.DatasetName) + len(m.Ops) }

func (m *HelloAck) appendPayload(p []byte) []byte {
	p = binary.BigEndian.AppendUint16(p, m.Version)
	p = binary.BigEndian.AppendUint32(p, m.NumSamples)
	p = binary.BigEndian.AppendUint16(p, m.Crop)
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(m.FlipP))
	p = binary.BigEndian.AppendUint16(p, m.Cores)
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(m.Slowdown))
	p = binary.BigEndian.AppendUint16(p, m.Shard)
	p = binary.BigEndian.AppendUint16(p, m.Shards)
	p = appendString(p, m.DatasetName)
	return appendString(p, m.Ops)
}

func (m *HelloAck) decodePayload(p []byte) error {
	if len(p) < 30 {
		return errTruncated
	}
	m.Version = binary.BigEndian.Uint16(p[0:2])
	m.NumSamples = binary.BigEndian.Uint32(p[2:6])
	m.Crop = binary.BigEndian.Uint16(p[6:8])
	m.FlipP = math.Float64frombits(binary.BigEndian.Uint64(p[8:16]))
	m.Cores = binary.BigEndian.Uint16(p[16:18])
	m.Slowdown = math.Float64frombits(binary.BigEndian.Uint64(p[18:26]))
	m.Shard = binary.BigEndian.Uint16(p[26:28])
	m.Shards = binary.BigEndian.Uint16(p[28:30])
	m.DatasetName, p = cutString(p[30:])
	if m.Ops, p = cutString(p); p == nil || len(p) != 0 {
		return errTruncated
	}
	return nil
}

// appendString appends s behind its 2-byte length.
func appendString(p []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(p, uint16(len(s))), s...)
}

// cutString reads a string appendString wrote at the head of p and returns
// the rest of p, or nil rest when p is too short.
func cutString(p []byte) (string, []byte) {
	if len(p) < 2 || len(p) < 2+int(binary.BigEndian.Uint16(p)) {
		return "", nil
	}
	n := 2 + int(binary.BigEndian.Uint16(p))
	return string(p[2:n]), p[n:]
}

func (m *StatsReq) payloadSize() int { return 8 }

func (m *StatsReq) appendPayload(p []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	return append(p, b[:]...)
}

func (m *StatsReq) decodePayload(p []byte) error {
	if len(p) != 8 {
		return errTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	return nil
}

func (m *StatsResp) payloadSize() int { return 40 }

func (m *StatsResp) appendPayload(p []byte) []byte {
	var b [40]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	binary.BigEndian.PutUint64(b[8:16], m.SamplesServed)
	binary.BigEndian.PutUint64(b[16:24], m.OpsExecuted)
	binary.BigEndian.PutUint64(b[24:32], m.BytesSent)
	binary.BigEndian.PutUint64(b[32:40], m.ServerCPUNanos)
	return append(p, b[:]...)
}

func (m *StatsResp) decodePayload(p []byte) error {
	if len(p) != 40 {
		return errTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	m.SamplesServed = binary.BigEndian.Uint64(p[8:16])
	m.OpsExecuted = binary.BigEndian.Uint64(p[16:24])
	m.BytesSent = binary.BigEndian.Uint64(p[24:32])
	m.ServerCPUNanos = binary.BigEndian.Uint64(p[32:40])
	return nil
}

func (m *ErrorResp) payloadSize() int { return 12 + len(m.Message) }

func (m *ErrorResp) appendPayload(p []byte) []byte {
	p = binary.BigEndian.AppendUint64(p, m.RequestID)
	p = binary.BigEndian.AppendUint16(p, uint16(m.Code))
	return appendString(p, m.Message)
}

func (m *ErrorResp) decodePayload(p []byte) error {
	if len(p) < 10 {
		return errTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	m.Code = ErrCode(binary.BigEndian.Uint16(p[8:10]))
	if m.Message, p = cutString(p[10:]); p == nil || len(p) != 0 {
		return errTruncated
	}
	return nil
}

// copyArtifact copies an artifact payload into a pool-backed buffer so the
// decoded message can outlive the transient frame buffer. Empty payloads
// decode to nil, matching the historical encoding of "no artifact". The
// caller owns the copy; Recycle returns it to the pool.
func copyArtifact(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	out := bufpool.GetBytes(len(p))
	copy(out, p)
	return out
}

// Write frames and sends one message: header and payload are assembled in a
// single pooled buffer and issued as one w.Write, so the hot path performs
// no allocation and one syscall per frame.
func Write(w io.Writer, m Message) error {
	n := m.payloadSize()
	if n > maxFrameSize {
		return errFrameTooBig
	}
	buf := bufpool.GetBytes(frameHeader + n)[:0]
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	hdr[4] = uint8(m.Type())
	hdr[5] = flagChecksum
	binary.BigEndian.PutUint32(hdr[6:10], uint32(n))
	buf = append(buf, hdr[:]...)
	buf = m.appendPayload(buf)
	// CRC32-C over type, flags, length, and payload; magic and the checksum
	// field itself are excluded.
	crc := crc32.Update(0, castagnoli, buf[4:10])
	crc = crc32.Update(crc, castagnoli, buf[frameHeader:])
	binary.BigEndian.PutUint32(buf[10:14], crc)
	_, err := w.Write(buf)
	bufpool.PutBytes(buf)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// FrameSize returns the total on-wire bytes of a message — header plus
// payload — for traffic accounting. It never allocates.
func FrameSize(m Message) int { return frameHeader + m.payloadSize() }

// Recycle returns a message's pooled payload buffers (fetch-response
// artifacts) to the arena and clears them. Call it once the artifact bytes
// have been fully consumed — e.g. after DecodeArtifact copied them out, or
// after a server finished writing the frame. Safe on every message type;
// messages without pooled payloads are no-ops.
func Recycle(m Message) {
	if t, ok := m.(*FetchBatchResp); ok {
		for i := range t.Items {
			if t.Items[i].Artifact != nil {
				bufpool.PutBytes(t.Items[i].Artifact)
				t.Items[i].Artifact = nil
			}
		}
	}
}

// Read receives and decodes one message.
func Read(r io.Reader) (Message, error) {
	hdr := bufpool.GetBytes(frameHeader)
	defer bufpool.PutBytes(hdr)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		return nil, errBadMagic
	}
	size := binary.BigEndian.Uint32(hdr[6:10])
	if size > maxFrameSize {
		return nil, errFrameTooBig
	}
	if size > math.MaxInt32 {
		return nil, errFrameTooBig
	}
	msgType := MsgType(hdr[4])
	payload := bufpool.GetBytes(int(size))
	defer bufpool.PutBytes(payload)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	// Verify integrity before any decoding: a corrupted frame must surface
	// as the typed ErrChecksum, never as a plausibly-decoded wrong message.
	crc := crc32.Update(0, castagnoli, hdr[4:10])
	crc = crc32.Update(crc, castagnoli, payload)
	if got := binary.BigEndian.Uint32(hdr[10:14]); got != crc {
		return nil, fmt.Errorf("%w: frame claims %08x, contents hash %08x", ErrChecksum, got, crc)
	}
	var m Message
	switch msgType {
	case typeHello:
		m = &Hello{}
	case typeHelloAck:
		m = &HelloAck{}
	case typeStatsReq:
		m = &StatsReq{}
	case typeStatsResp:
		m = &StatsResp{}
	case typeError:
		m = &ErrorResp{}
	case typeFetchBatch:
		m = &FetchBatch{}
	case typeFetchBatchResp:
		m = &FetchBatchResp{}
	case typeRetryAfter:
		m = &RetryAfter{}
	default:
		return nil, fmt.Errorf("%w: %d", errUnknownType, uint8(msgType))
	}
	if err := m.decodePayload(payload); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", msgType, err)
	}
	return m, nil
}
