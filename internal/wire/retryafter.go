package wire

import "encoding/binary"

// RetryAfter tells the client the server is shedding load: the request was
// NOT queued and should be retried no sooner than Millis milliseconds from
// now. It is an application-level rejection — the session stays healthy and
// other in-flight requests are unaffected — so a retry layer must back off
// without tearing the connection down.
//
// Servers only emit it when admission control is enabled.
type RetryAfter struct {
	RequestID uint64
	// Millis is the server's backoff hint in milliseconds.
	Millis uint32
	// Queued is the server-side queue depth at rejection time, an
	// observability hint for client-side load balancing.
	Queued uint32
}

// Type implements Message.
func (*RetryAfter) Type() MsgType { return typeRetryAfter }

func (m *RetryAfter) payloadSize() int { return 16 }

func (m *RetryAfter) appendPayload(p []byte) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	binary.BigEndian.PutUint32(b[8:12], m.Millis)
	binary.BigEndian.PutUint32(b[12:16], m.Queued)
	return append(p, b[:]...)
}

func (m *RetryAfter) decodePayload(p []byte) error {
	if len(p) != 16 {
		return errTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	m.Millis = binary.BigEndian.Uint32(p[8:12])
	m.Queued = binary.BigEndian.Uint32(p[12:16])
	return nil
}
