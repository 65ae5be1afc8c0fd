package wire

import (
	"bytes"
	"testing"
)

func BenchmarkWriteFetch(b *testing.B) {
	var buf bytes.Buffer
	m := &FetchBatch{RequestID: 1, Epoch: 4, Items: []FetchBatchItem{{Sample: 2, Split: 3}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripFetchResp600KB(b *testing.B) {
	artifact := make([]byte, 602134) // a 224² tensor artifact
	m := &FetchBatchResp{RequestID: 1, Items: []FetchBatchRespItem{{Sample: 2, Artifact: artifact}}}
	b.SetBytes(int64(len(artifact)))
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, m); err != nil {
			b.Fatal(err)
		}
		msg, err := Read(&buf)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(msg) // return the pooled artifact, as the storage client does
	}
}
