package imaging

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/bufpool"
)

// SJPR is the progressive companion to SJPG: the same quantized YCbCr
// planes, but emitted as L ordered scans — a coarse base plane followed by
// one-bit refinement deltas — so that any prefix of the concatenated scans
// decodes to a valid lower-fidelity image. A scan index (per-scan length +
// CRC32-C) lives in the header, which lets a server slice a stored
// container to a requested fidelity without re-encoding, and lets the
// decoder detect mid-scan truncation or index corruption with a typed
// error instead of producing a wrong image.
//
// Container layout (big-endian):
//
//	0..3    magic "SJPR"
//	4       version (2; version 1 spent a byte on each refinement bit)
//	5       quality (1..100, the SJPG quality the full container decodes at)
//	6..9    W
//	10..13  H
//	14      L, the scan count (1..MaxScans)
//	15..16  sidecar length S (0 when absent)
//	17..    S opaque sidecar bytes (label/metadata stream, typically
//	        dictionary-compressed by internal/compressor; part of every
//	        prefix so labels survive fidelity reduction)
//	...     scan index: L x { payload length u32, CRC32-C u32 }
//	...     L DEFLATE-compressed scan payloads, concatenated
//
// Scan 0 carries the quantized planes right-shifted by L-1 extra bits
// (delta-predicted like SJPG); scan j>0 carries the j-th refinement bit of
// every plane value as a bit plane: value i in bit i&7 of byte i>>3, the pad
// bits of the last byte zero. Decoding k scans reconstructs the planes at
// quality-shift + (L-k) extra quantization; decoding all L scans is
// pixel-identical to Decode(Encode(im, quality)).
const (
	sjprMagic       = "SJPR"
	sjprVersion     = 2
	sjprFixedHeader = 4 + 1 + 1 + 4 + 4 + 1 + 2 // magic, ver, quality, W, H, L, sidecar len

	// MaxScans bounds the scan count: each refinement scan adds one bit of
	// plane precision, and the quality-derived shifts leave at most ~5
	// meaningful bits, so more than 4 scans would refine noise.
	MaxScans = 4

	// MaxSidecar bounds the embedded sidecar stream (u16 length field).
	MaxSidecar = 1<<16 - 1
)

// Progressive-container errors. ErrTruncated is the typed "prefix ends
// mid-scan" signal: a well-formed prefix always ends exactly on a scan
// boundary (SlicePrefix guarantees this), so anything else is either
// transport damage or a corrupt index.
var (
	ErrTruncated = errors.New("imaging: SJPR prefix truncated mid-scan")
	ErrBadScans  = fmt.Errorf("imaging: scan count must be in [1, %d]", MaxScans)
)

var sjprCRC = crc32.MakeTable(crc32.Castagnoli)

// The encoder's pooled scratch: a compress/flate writer, ≈650 KB of state
// reset between scans, and the buffer the scans go to.
var (
	flateWriterPool = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
		if err != nil {
			panic(err) // DefaultCompression is always a valid level
		}
		return zw
	}}
	encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// IsProgressive reports whether data begins with the SJPR magic.
func IsProgressive(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == sjprMagic
}

// EncodeProgressive compresses im into an SJPR container with the given
// scan count and no sidecar. The returned slice is freshly allocated and
// owned by the caller.
func EncodeProgressive(im *Image, quality, scans int) ([]byte, error) {
	return EncodeProgressiveSidecar(im, quality, scans, nil)
}

// EncodeProgressiveSidecar is EncodeProgressive with an opaque sidecar
// stream (at most MaxSidecar bytes) embedded in the header region, so it is
// present in every fidelity prefix.
func EncodeProgressiveSidecar(im *Image, quality, scans int, sidecar []byte) ([]byte, error) {
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("%w: %d", ErrBadQuality, quality)
	}
	if scans < 1 || scans > MaxScans {
		return nil, fmt.Errorf("%w: %d", ErrBadScans, scans)
	}
	if len(sidecar) > MaxSidecar {
		return nil, fmt.Errorf("imaging: sidecar of %d bytes exceeds %d", len(sidecar), MaxSidecar)
	}
	yShift, cShift := shifts(quality)

	cw, ch := (im.W+1)/2, (im.H+1)/2
	total := im.W*im.H + 2*cw*ch
	// planes holds the SJPG-quantized values; scratch is re-filled per scan
	// with that scan's payload (shifted base or packed refinement bits).
	planes := bufpool.GetBytes(2 * total)
	defer bufpool.PutBytes(planes)
	scratch := planes[total:]
	planes = planes[:total]
	yPlane := planes[:im.W*im.H]
	cbPlane := planes[im.W*im.H : im.W*im.H+cw*ch]
	crPlane := planes[im.W*im.H+cw*ch:]
	fillPlanes(im, yShift, cShift, yPlane, cbPlane, crPlane)

	body := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(body)
	body.Reset()
	zw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(zw)

	lens := make([]int, scans)
	crcs := make([]uint32, scans)
	for j := 0; j < scans; j++ {
		if j == 0 {
			extra := uint(scans - 1)
			for i, v := range planes {
				scratch[i] = v >> extra
			}
			deltaEncode(scratch[:im.W*im.H], im.W)
			deltaEncode(scratch[im.W*im.H:im.W*im.H+cw*ch], cw)
			deltaEncode(scratch[im.W*im.H+cw*ch:], cw)
		} else {
			bit := uint(scans - 1 - j)
			scratch = scratch[:scanLen(total, j)]
			clear(scratch)
			for i, v := range planes {
				scratch[i>>3] |= (v >> bit & 1) << (i & 7)
			}
		}
		start := body.Len()
		zw.Reset(body)
		if _, err := zw.Write(scratch); err != nil {
			return nil, fmt.Errorf("imaging: compress scan %d: %w", j, err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("imaging: finish scan %d: %w", j, err)
		}
		lens[j] = body.Len() - start
		crcs[j] = crc32.Checksum(body.Bytes()[start:], sjprCRC)
	}

	out := make([]byte, 0, sjprFixedHeader+len(sidecar)+8*scans+body.Len())
	out = append(out, sjprMagic...)
	out = append(out, sjprVersion, uint8(quality))
	out = binary.BigEndian.AppendUint32(out, uint32(im.W))
	out = binary.BigEndian.AppendUint32(out, uint32(im.H))
	out = append(out, uint8(scans))
	out = binary.BigEndian.AppendUint16(out, uint16(len(sidecar)))
	out = append(out, sidecar...)
	for j := 0; j < scans; j++ {
		out = binary.BigEndian.AppendUint32(out, uint32(lens[j]))
		out = binary.BigEndian.AppendUint32(out, crcs[j])
	}
	return append(out, body.Bytes()...), nil
}

// sjprHeader is the parsed fixed header + scan index of a container or
// container prefix.
type sjprHeader struct {
	w, h    int
	quality int
	scans   int    // L, the total scan count recorded in the header
	total   int    // plane values: w*h luma, two quarter-size chroma planes
	sidecar []byte // subslice of the input, may be empty
	lens    [MaxScans]int
	crcs    [MaxScans]uint32
	body    int // offset of scan 0's payload
}

// prefixEnd returns the container offset one past scan k-1's payload.
func (h *sjprHeader) prefixEnd(k int) int {
	end := h.body
	for j := 0; j < k; j++ {
		end += h.lens[j]
	}
	return end
}

// present returns how many complete scans a blob of n bytes carries, or -1
// if n does not land exactly on a scan boundary.
func (h *sjprHeader) present(n int) int {
	end := h.body
	for k := 0; k <= h.scans; k++ {
		if n == end {
			return k
		}
		if k == h.scans || n < end {
			return -1
		}
		end += h.lens[k]
	}
	return -1
}

// parseProgressive validates the header and scan index. It requires only
// that data is long enough to hold them — payload completeness is the
// caller's concern (via present/prefixEnd).
func parseProgressive(data []byte) (sjprHeader, error) {
	var h sjprHeader
	if len(data) < sjprFixedHeader || string(data[:4]) != sjprMagic {
		return h, ErrCorrupt
	}
	if data[4] != sjprVersion {
		return h, fmt.Errorf("%w: SJPR version %d, this build reads %d", ErrUnsupported, data[4], sjprVersion)
	}
	h.quality = int(data[5])
	if h.quality < 1 || h.quality > 100 {
		return h, fmt.Errorf("%w: quality %d", ErrCorrupt, h.quality)
	}
	h.w = int(binary.BigEndian.Uint32(data[6:10]))
	h.h = int(binary.BigEndian.Uint32(data[10:14]))
	if h.w <= 0 || h.h <= 0 || h.w > maxDim || h.h > maxDim {
		return h, fmt.Errorf("%w: dims %dx%d", ErrCorrupt, h.w, h.h)
	}
	h.scans = int(data[14])
	if h.scans < 1 || h.scans > MaxScans {
		return h, fmt.Errorf("%w: scan count %d", ErrCorrupt, h.scans)
	}
	side := int(binary.BigEndian.Uint16(data[15:17]))
	idx := sjprFixedHeader + side
	h.body = idx + 8*h.scans
	if len(data) < h.body {
		return h, fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), h.body)
	}
	h.sidecar = data[sjprFixedHeader:idx]
	// A scan payload can never exceed the DEFLATE worst case for its own
	// plaintext; the cap rejects absurd indexes before any allocation.
	h.total = h.w*h.h + 2*((h.w+1)/2)*((h.h+1)/2)
	for j := 0; j < h.scans; j++ {
		h.lens[j] = int(binary.BigEndian.Uint32(data[idx+8*j : idx+8*j+4]))
		h.crcs[j] = binary.BigEndian.Uint32(data[idx+8*j+4 : idx+8*j+8])
		if h.lens[j] <= 0 || h.lens[j] > maxDeflated(scanLen(h.total, j)) {
			return h, fmt.Errorf("%w: scan %d length %d", ErrCorrupt, j, h.lens[j])
		}
	}
	return h, nil
}

// ProgressiveInfo returns the geometry, quality, total scan count, and the
// number of complete scans present in data (which may be a prefix).
func ProgressiveInfo(data []byte) (w, h, quality, scans, present int, err error) {
	hd, err := parseProgressive(data)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	p := hd.present(len(data))
	if p < 1 {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	return hd.w, hd.h, hd.quality, hd.scans, p, nil
}

// ProgressiveSidecar returns the sidecar stream embedded in a container or
// prefix, as a subslice of data (callers must not mutate it).
func ProgressiveSidecar(data []byte) ([]byte, error) {
	hd, err := parseProgressive(data)
	if err != nil {
		return nil, err
	}
	return hd.sidecar, nil
}

// PrefixSize returns the byte length of the prefix of data carrying the
// first k scans (header, sidecar, and full scan index included). k is
// clamped to the container's scan count; k < 1 is an error — every prefix
// carries at least the base scan. data must hold at least the header and
// index (a full container, or any valid prefix at least k scans deep).
func PrefixSize(data []byte, k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("%w: prefix of %d scans", ErrBadScans, k)
	}
	hd, err := parseProgressive(data)
	if err != nil {
		return 0, err
	}
	if k > hd.scans {
		k = hd.scans
	}
	end := hd.prefixEnd(k)
	if len(data) < end {
		return 0, fmt.Errorf("%w: %d bytes, %d-scan prefix needs %d", ErrTruncated, len(data), k, end)
	}
	return end, nil
}

// SlicePrefix returns the k-scan prefix of data as a zero-copy subslice —
// the serving hot path: a storage server slices the stored container
// without re-encoding. The result aliases data, so it inherits data's
// ownership: callers must not hand it to an owner that recycles buffers
// (copy into a pooled buffer first, as storage's prefix-serve path does).
func SlicePrefix(data []byte, k int) ([]byte, error) {
	end, err := PrefixSize(data, k)
	if err != nil {
		return nil, err
	}
	return data[:end], nil
}

// FidelityPrefixSize is the fidelity directive's one definition: the byte
// length of the prefix of data a fetch withholding drop refinement scans
// ships, which is the first scans − drop scans and never fewer than the base
// scan. ok is false when there is nothing to slice: drop is not positive,
// data is not a progressive container, or data (itself a prefix) holds fewer
// scans than that.
func FidelityPrefixSize(data []byte, drop int) (n int, ok bool) {
	if drop <= 0 || !IsProgressive(data) {
		return 0, false
	}
	hd, err := parseProgressive(data)
	if err != nil {
		return 0, false
	}
	keep := max(hd.scans-drop, 1)
	if hd.present(len(data)) < keep {
		return 0, false
	}
	return hd.prefixEnd(keep), true
}

// DecodeProgressive decodes however many complete scans data carries and
// returns the image with the count. A blob not ending exactly on a scan
// boundary returns ErrTruncated; a scan whose CRC32-C disagrees with the
// index returns ErrCorrupt — never a silently wrong image. The returned
// image is pool-backed; the caller should Release it when done.
func DecodeProgressive(data []byte) (*Image, int, error) {
	hd, err := parseProgressive(data)
	if err != nil {
		return nil, 0, err
	}
	k := hd.present(len(data))
	if k < 1 {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	im, err := decodeScans(data, &hd, k)
	return im, k, err
}

// DecodeProgressiveCropResize is CropResize over DecodeProgressive's image
// without that image in between, as DecodeCropResize is for SJPG: same pixels,
// same errors in the same order.
func DecodeProgressiveCropResize(data []byte, rect Rect, w, h int) (*Image, error) {
	hd, err := parseProgressive(data)
	if err != nil {
		return nil, err
	}
	k := hd.present(len(data))
	if k < 1 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	p, err := scanPlanes(data, &hd, k)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.cropResize(rect, w, h)
}

// DecodeAtFidelity decodes a full container (or a sufficiently deep prefix)
// using only its first k scans, producing the same pixels as decoding
// SlicePrefix(data, k) — the contract the cache's deep-hit path relies on.
func DecodeAtFidelity(data []byte, k int) (*Image, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: decode at %d scans", ErrBadScans, k)
	}
	hd, err := parseProgressive(data)
	if err != nil {
		return nil, err
	}
	if k > hd.scans {
		k = hd.scans
	}
	if end := hd.prefixEnd(k); len(data) < end {
		return nil, fmt.Errorf("%w: %d bytes, %d-scan prefix needs %d", ErrTruncated, len(data), k, end)
	}
	return decodeScans(data, &hd, k)
}

// decodeScans decodes the first k scans to a full image.
func decodeScans(data []byte, hd *sjprHeader, k int) (*Image, error) {
	p, err := scanPlanes(data, hd, k)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.image()
}

// scanPlanes is the first step of every SJPR decode: it reconstructs the
// planes from the first k scans (payloads verified against the index CRCs),
// to be dequantized at the effective shift.
func scanPlanes(data []byte, hd *sjprHeader, k int) (ycc, error) {
	yShift, cShift := shifts(hd.quality)
	total := hd.total

	// An index too short for what its scan inflates to is refused before the
	// planes are sized from the header.
	for j := 0; j < k; j++ {
		if !canInflateTo(hd.lens[j], scanLen(total, j)) {
			return ycc{}, fmt.Errorf("%w: %d-byte scan %d cannot hold %dx%d", ErrCorrupt, hd.lens[j], j, hd.w, hd.h)
		}
	}
	// The tail of the buffer is where refinement scans inflate.
	extra := uint(hd.scans - k)
	p := newYCC(hd.w, hd.h, yShift+extra, cShift+extra, bufpool.GetBytes(total+scanLen(total, 1)))
	planes, packed := p.buf[:total], p.buf[total:]

	off := hd.body
	for j := 0; j < k; j++ {
		payload := data[off : off+hd.lens[j]]
		off += hd.lens[j]
		if crc32.Checksum(payload, sjprCRC) != hd.crcs[j] {
			p.release()
			return ycc{}, fmt.Errorf("%w: scan %d CRC mismatch", ErrCorrupt, j)
		}
		dst := planes
		if j > 0 {
			dst = packed
		}
		if err := inflateInto(payload, dst); err != nil {
			p.release()
			return ycc{}, fmt.Errorf("%w: scan %d: %v", ErrCorrupt, j, err)
		}
		if j == 0 {
			continue
		}
		if pad := packed[len(packed)-1] >> uint((total-1)&7+1); pad != 0 {
			p.release()
			return ycc{}, fmt.Errorf("%w: scan %d pad bits %#x", ErrCorrupt, j, pad)
		}
		// A refinement bit extends the plane value, not its residual.
		p.undoEveryPrediction()
		foldBits(planes, packed)
	}
	return p, nil
}

// scanLen is what scan j of a container with total plane values inflates to:
// the values, or one bit of each.
func scanLen(total, j int) int {
	if j == 0 {
		return total
	}
	return (total + 7) / 8
}

// maxDeflated bounds the DEFLATE stream of n bytes from a writer that stores
// what it cannot shrink: compress/flate closes a block every 1<<14 literals and
// a stored block costs five bytes; 64 more cover the last block, the empty one
// that ends the stream and the code tables of a stream too short to repay them.
func maxDeflated(n int) int { return n + 5*(n>>14) + 64 }

// bitSpread[b] holds bit i of b in bit 0 of byte i.
var bitSpread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// foldBits appends a refinement bit to every plane value, planes[i] =
// planes[i]<<1 | bit i of packed, eight values a step. The mask drops the bit
// a value of 128 or more (a corrupt base scan) would push into its neighbour,
// as the uint8 shift does.
func foldBits(planes, packed []uint8) {
	n := len(planes) &^ 7
	for i := 0; i < n; i += 8 {
		x := binary.LittleEndian.Uint64(planes[i:])
		binary.LittleEndian.PutUint64(planes[i:], x<<1&0xfefefefefefefefe|bitSpread[packed[i>>3]])
	}
	for i := n; i < len(planes); i++ {
		planes[i] = planes[i]<<1 | packed[i>>3]>>(i&7)&1
	}
}
