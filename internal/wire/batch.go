package wire

import "encoding/binary"

// FetchBatchItem is one offload directive: ship Sample after executing its
// first Split pipeline ops (0 ships the stored object), withholding Fidelity
// progressive refinement scans when the stored object has them
// (imaging.FidelityPrefixSize; 0 = the full container), and under Rows only
// the units — rows and columns — the epoch's crop of it reads
// (imaging.Slice). Fidelity and Rows
// are meaningful only at Split 0; servers ignore them on deeper cuts. On the
// wire an item is always 6 bytes: sample (4), split, and the fidelity byte —
// Fidelity in its low 7 bits, Rows in its high bit.
type FetchBatchItem struct {
	Sample   uint32
	Split    uint8
	Fidelity uint8 // < 128
	Rows     bool
}

const rowsBit = 0x80 // Rows in the fidelity byte

// FetchBatch requests several samples in one frame, all for the same epoch.
type FetchBatch struct {
	RequestID uint64
	Epoch     uint64
	Items     []FetchBatchItem
}

// FetchBatchRespItem is one sample's outcome within a batch response.
type FetchBatchRespItem struct {
	Sample   uint32
	Split    uint8
	Status   FetchStatus
	Artifact []byte
}

// FetchBatchResp answers a FetchBatch, item for item, in request order.
type FetchBatchResp struct {
	RequestID uint64
	Items     []FetchBatchRespItem
}

// MaxBatchItems bounds a batch so a response cannot exceed maxFrameSize
// even when every item is a full tensor artifact.
const MaxBatchItems = 64

func (*FetchBatch) Type() MsgType     { return typeFetchBatch }
func (*FetchBatchResp) Type() MsgType { return typeFetchBatchResp }

const (
	batchHeader = 18 // request ID (8), epoch (8), item count (2)
	batchItem   = 6
)

func (m *FetchBatch) payloadSize() int { return batchHeader + batchItem*len(m.Items) }

func (m *FetchBatch) appendPayload(p []byte) []byte {
	var b [batchHeader]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	binary.BigEndian.PutUint64(b[8:16], m.Epoch)
	binary.BigEndian.PutUint16(b[16:18], uint16(len(m.Items)))
	p = append(p, b[:]...)
	for _, it := range m.Items {
		var e [batchItem]byte
		binary.BigEndian.PutUint32(e[0:4], it.Sample)
		e[4] = it.Split
		e[5] = it.Fidelity &^ rowsBit
		if it.Rows {
			e[5] |= rowsBit
		}
		p = append(p, e[:]...)
	}
	return p
}

func (m *FetchBatch) decodePayload(p []byte) error {
	if len(p) < batchHeader {
		return errTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	m.Epoch = binary.BigEndian.Uint64(p[8:16])
	n := int(binary.BigEndian.Uint16(p[16:18]))
	if n > MaxBatchItems {
		return errFrameTooBig
	}
	if len(p) != batchHeader+batchItem*n {
		return errTruncated
	}
	m.Items = make([]FetchBatchItem, n)
	for i := range m.Items {
		e := p[batchHeader+batchItem*i:]
		m.Items[i] = FetchBatchItem{Sample: binary.BigEndian.Uint32(e[0:4]), Split: e[4], Fidelity: e[5] &^ rowsBit, Rows: e[5]&rowsBit != 0}
	}
	return nil
}

func (m *FetchBatchResp) payloadSize() int {
	size := 8 + 2
	for _, it := range m.Items {
		size += 4 + 1 + 1 + 4 + len(it.Artifact)
	}
	return size
}

func (m *FetchBatchResp) appendPayload(p []byte) []byte {
	var b [10]byte
	binary.BigEndian.PutUint64(b[0:8], m.RequestID)
	binary.BigEndian.PutUint16(b[8:10], uint16(len(m.Items)))
	p = append(p, b[:]...)
	for _, it := range m.Items {
		var e [10]byte
		binary.BigEndian.PutUint32(e[0:4], it.Sample)
		e[4] = it.Split
		e[5] = uint8(it.Status)
		binary.BigEndian.PutUint32(e[6:10], uint32(len(it.Artifact)))
		p = append(p, e[:]...)
		p = append(p, it.Artifact...)
	}
	return p
}

func (m *FetchBatchResp) decodePayload(p []byte) error {
	if len(p) < 10 {
		return errTruncated
	}
	m.RequestID = binary.BigEndian.Uint64(p[0:8])
	n := int(binary.BigEndian.Uint16(p[8:10]))
	if n > MaxBatchItems {
		return errFrameTooBig
	}
	m.Items = make([]FetchBatchRespItem, 0, n)
	off := 10
	for i := 0; i < n; i++ {
		if len(p) < off+10 {
			return errTruncated
		}
		it := FetchBatchRespItem{
			Sample: binary.BigEndian.Uint32(p[off : off+4]),
			Split:  p[off+4],
			Status: FetchStatus(p[off+5]),
		}
		alen := int(binary.BigEndian.Uint32(p[off+6 : off+10]))
		if len(p) < off+10+alen {
			return errTruncated
		}
		it.Artifact = copyArtifact(p[off+10 : off+10+alen])
		m.Items = append(m.Items, it)
		off += 10 + alen
	}
	if off != len(p) {
		return errTruncated
	}
	return nil
}
