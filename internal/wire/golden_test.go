package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The fetch round trip's layout, documented by its bytes. Frame header:
// magic "SOPH", type, flags, payload length, CRC32-C (14 B). Request payload:
// request ID (8), epoch (8), plan version (4), item count (2), then 6 B an
// item — sample (4), split, fidelity — so a one-sample request is 28 B of
// payload whether or not it withholds scans. Response payload: request ID
// (8), item count (2), then per item sample (4), split, status, artifact
// length (4) and the artifact: 20 B plus the artifact for one sample.
func TestGoldenFetchFrames(t *testing.T) {
	for _, c := range []struct {
		name    string
		m       Message
		payload int
		want    string
	}{
		{"one-item request", &FetchBatch{RequestID: 11, Epoch: 44, PlanVersion: 5,
			Items: []FetchBatchItem{{Sample: 22, Split: 3}}}, 28,
			"534f5048" + "08" + "01" + "0000001c" + "a999a057" +
				"000000000000000b" + "000000000000002c" + "00000005" + "0001" +
				"00000016" + "03" + "00"},
		{"fidelity-carrying request", &FetchBatch{RequestID: 1, Epoch: 2, PlanVersion: 3,
			Items: []FetchBatchItem{{Sample: 10, Split: 2}, {Sample: 11, Fidelity: 3}}}, 34,
			"534f5048" + "08" + "01" + "00000022" + "0100cf93" +
				"0000000000000001" + "0000000000000002" + "00000003" + "0002" +
				"0000000a" + "02" + "00" + "0000000b" + "00" + "03"},
		{"one-item response", &FetchBatchResp{RequestID: 11,
			Items: []FetchBatchRespItem{{Sample: 22, Split: 3, Status: FetchOK, Artifact: []byte{0xAA, 0xBB, 0xCC}}}}, 23,
			"534f5048" + "09" + "01" + "00000017" + "1cf96e66" +
				"000000000000000b" + "0001" +
				"00000016" + "03" + "00" + "00000003" + "aabbcc"},
	} {
		if got := c.m.payloadSize(); got != c.payload {
			t.Errorf("%s: payload is %d bytes, want %d", c.name, got, c.payload)
		}
		var buf bytes.Buffer
		if err := Write(&buf, c.m); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var again bytes.Buffer
		if err := Write(&again, back); err != nil || hex.EncodeToString(again.Bytes()) != c.want {
			t.Errorf("%s: decoded frame re-encodes differently (%v)", c.name, err)
		}
	}
}
