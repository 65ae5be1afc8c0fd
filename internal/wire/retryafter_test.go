package wire

import (
	"bytes"
	"testing"
)

func TestRetryAfterRoundTrip(t *testing.T) {
	in := &RetryAfter{RequestID: 77, Millis: 125, Queued: 42}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != FrameSize(in) {
		t.Fatalf("FrameSize %d, wrote %d", FrameSize(in), buf.Len())
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(*RetryAfter)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if *got != *in {
		t.Fatalf("%+v -> %+v", in, got)
	}
}

func TestRetryAfterWrongSizeRejected(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17} {
		frame := rawFrame(typeRetryAfter, make([]byte, n))
		if _, err := Read(bytes.NewReader(frame)); err == nil {
			t.Errorf("accepted %d-byte RetryAfter payload", n)
		}
	}
}

func TestRetryAfterString(t *testing.T) {
	if got := typeRetryAfter.String(); got != "RetryAfter" {
		t.Fatalf("String() = %q", got)
	}
}
