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
// before replying, and the progressive refinement scans to withhold — plus
// the epoch, so the server derives the exact augmentation seeds the client
// would have used locally, answered by one FetchBatchResp (or a RetryAfter
// when admission control sheds it). The request is stamped with the
// PlanVersion it was issued under, so a server can observe which
// control-plane snapshot it came from. During a plan swap a session legally
// carries mixed-version requests in flight — fetches stay idempotent because
// augmentation seeds depend only on (job, epoch, sample), never on the plan
// version — so the field is observability and validation, not routing.
// PlanVersion 0 means "unversioned" (a bare plan outside any provider).
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
	Magic = 0x534F5048 // "SOPH"
	// Version is the only protocol generation a peer speaks; a Hello carrying
	// any other is answered with an ErrorResp.
	Version      = 4
	frameHeader  = 14
	MaxFrameSize = 64 << 20 // generous bound: a 224² tensor is ~600 KB
	// HeaderSize is the exported on-wire frame-header length: magic (4),
	// type (1), flags (1), payload length (4), CRC32-C (4).
	HeaderSize = frameHeader
	// FlagChecksum marks a frame whose header carries a CRC32-C over the
	// type, flags, length, and payload. Every frame this package writes sets
	// it; Read verifies the checksum unconditionally, so the flag is
	// self-description for wire sniffers, not an opt-out.
	FlagChecksum = 0x01
)

// castagnoli is the CRC32-C table used for frame checksums (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MsgType identifies a frame's payload structure.
type MsgType uint8

// Message types. 3 and 4 are unassigned: Read rejects them like any other
// unknown type.
const (
	TypeHello          MsgType = 1
	TypeHelloAck       MsgType = 2
	TypeStatsReq       MsgType = 5
	TypeStatsResp      MsgType = 6
	TypeError          MsgType = 7
	TypeFetchBatch     MsgType = 8
	TypeFetchBatchResp MsgType = 9
	TypeRetryAfter     MsgType = 10
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeHelloAck:
		return "HelloAck"
	case TypeStatsReq:
		return "StatsReq"
	case TypeStatsResp:
		return "StatsResp"
	case TypeError:
		return "Error"
	case TypeFetchBatch:
		return "FetchBatch"
	case TypeFetchBatchResp:
		return "FetchBatchResp"
	case TypeRetryAfter:
		return "RetryAfter"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Protocol errors.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrameSize")
	ErrTruncated   = errors.New("wire: truncated payload")
	ErrUnknownType = errors.New("wire: unknown message type")
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

// HelloAck answers a Hello with dataset facts.
type HelloAck struct {
	Version     uint16
	DatasetName string
	NumSamples  uint32
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

func (*Hello) Type() MsgType     { return TypeHello }
func (*HelloAck) Type() MsgType  { return TypeHelloAck }
func (*StatsReq) Type() MsgType  { return TypeStatsReq }
func (*StatsResp) Type() MsgType { return TypeStatsResp }
func (*ErrorResp) Type() MsgType { return TypeError }

func (m *Hello) payloadSize() int { return 10 }

func (m *Hello) appendPayload(p []byte) []byte {
	var b [10]byte
	binary.BigEndian.PutUint16(b[0:2], m.Version)
	binary.BigEndian.PutUint64(b[2:10], m.JobID)
	return append(p, b[:]...)
}

func (m *Hello) decodePayload(p []byte) error {
	if len(p) != 10 {
		return ErrTruncated
	}
	m.Version = binary.BigEndian.Uint16(p[0:2])
	m.JobID = binary.BigEndian.Uint64(p[2:10])
	return nil
}

func (m *HelloAck) payloadSize() int { return 8 + len(m.DatasetName) }

func (m *HelloAck) appendPayload(p []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint16(b[0:2], m.Version)
	binary.BigEndian.PutUint32(b[2:6], m.NumSamples)
	binary.BigEndian.PutUint16(b[6:8], uint16(len(m.DatasetName)))
	p = append(p, b[:]...)
	return append(p, m.DatasetName...)
}

func (m *HelloAck) decodePayload(p []byte) error {
	if len(p) < 8 {
		return ErrTruncated
	}
	m.Version = binary.BigEndian.Uint16(p[0:2])
	m.NumSamples = binary.BigEndian.Uint32(p[2:6])
	n := int(binary.BigEndian.Uint16(p[6:8]))
	if len(p) != 8+n {
		return ErrTruncated
	}
	m.DatasetName = string(p[8 : 8+n])
	return nil
}

func (m *StatsReq) payloadSize() int { return 8 }

func (m *StatsReq) appendPayload(p []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	return append(p, b[:]...)
}

func (m *StatsReq) decodePayload(p []byte) error {
	if len(p) != 8 {
		return ErrTruncated
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
		return ErrTruncated
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
	var b [12]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	binary.BigEndian.PutUint16(b[8:10], uint16(m.Code))
	binary.BigEndian.PutUint16(b[10:12], uint16(len(m.Message)))
	p = append(p, b[:]...)
	return append(p, m.Message...)
}

func (m *ErrorResp) decodePayload(p []byte) error {
	if len(p) < 12 {
		return ErrTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	m.Code = ErrCode(binary.BigEndian.Uint16(p[8:10]))
	n := int(binary.BigEndian.Uint16(p[10:12]))
	if len(p) != 12+n {
		return ErrTruncated
	}
	m.Message = string(p[12 : 12+n])
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
	if n > MaxFrameSize {
		return ErrFrameTooBig
	}
	buf := bufpool.GetBytes(frameHeader + n)[:0]
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = uint8(m.Type())
	hdr[5] = FlagChecksum
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
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	size := binary.BigEndian.Uint32(hdr[6:10])
	if size > MaxFrameSize {
		return nil, ErrFrameTooBig
	}
	if size > math.MaxInt32 {
		return nil, ErrFrameTooBig
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
	case TypeHello:
		m = &Hello{}
	case TypeHelloAck:
		m = &HelloAck{}
	case TypeStatsReq:
		m = &StatsReq{}
	case TypeStatsResp:
		m = &StatsResp{}
	case TypeError:
		m = &ErrorResp{}
	case TypeFetchBatch:
		m = &FetchBatch{}
	case TypeFetchBatchResp:
		m = &FetchBatchResp{}
	case TypeRetryAfter:
		m = &RetryAfter{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(msgType))
	}
	if err := m.decodePayload(payload); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", msgType, err)
	}
	return m, nil
}
