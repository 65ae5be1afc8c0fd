package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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
//	4       version (3; 2 and 1 stored DEFLATE scans, 1 a byte a refinement bit)
//	5       quality (1..100, the SJPG quality the full container decodes at)
//	6..9    W
//	10..13  H
//	14      L, the scan count (1..MaxScans)
//	15..16  sidecar length S (0 when absent)
//	17..    S opaque sidecar bytes (label/metadata stream, typically
//	        dictionary-compressed by internal/compressor; part of every
//	        prefix so labels survive fidelity reduction)
//	...     scan index: L x { payload length u32, CRC32-C u32 }
//	...     L scan payloads, concatenated, each its planes coded as SJPG's
//	        are, each plane one band
//
// Scan 0 carries the three quantized planes right-shifted by L-1 extra bits
// (delta-predicted like SJPG); scan j>0 carries the j-th refinement bit of
// every plane value as one bit plane: value i in bit i&7 of byte i>>3, the
// pad bits of the last byte zero. Decoding k scans reconstructs the planes at
// quality-shift + (L-k) extra quantization; decoding all L scans is
// pixel-identical to Decode(Encode(im, quality)).
const (
	sjprMagic       = "SJPR"
	sjprVersion     = 3
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

	n, cw, cn := im.W*im.H, (im.W+1)/2, ((im.W+1)/2)*((im.H+1)/2)
	total := n + 2*cn
	// planes holds the SJPG-quantized values; scratch is re-filled per scan
	// with that scan's planes (shifted base or packed refinement bits); body
	// takes the coded scans, at most maxScan bytes each.
	bound := 0
	for j := range scans {
		bound += maxScan(total, j)
	}
	buf := bufpool.GetBytes(2*total + bound)
	defer bufpool.PutBytes(buf)
	planes, scratch, body := buf[:total], buf[total:2*total], buf[2*total:2*total]
	fillPlanes(im, yShift, cShift, planes[:n], planes[n:n+cn], planes[n+cn:])

	var lens [MaxScans]int
	var crcs [MaxScans]uint32
	for j := range scans {
		scan := [][]byte{scratch[:n], scratch[n : n+cn], scratch[n+cn:]}
		if j == 0 {
			extra := uint(scans - 1)
			for i, v := range planes {
				scratch[i] = v >> extra
			}
			deltaEncode(scan[0], im.W, maxDim) // one band: no plane is taller
			deltaEncode(scan[1], cw, maxDim)
			deltaEncode(scan[2], cw, maxDim)
		} else {
			bit, packed := uint(scans-1-j), scratch[:scanLen(total, j)]
			clear(packed)
			for i, v := range planes {
				packed[i>>3] |= (v >> bit & 1) << (i & 7)
			}
			scan = [][]byte{packed}
		}
		start := len(body)
		for _, p := range scan { // each plane one band
			var code planeCode
			n := code.plan(p, len(p))
			code.put(body[len(body):][:n], p, len(p), nil)
			body = body[:len(body)+n]
		}
		lens[j] = len(body) - start
		crcs[j] = crc32.Checksum(body[start:], sjprCRC)
	}

	out := make([]byte, 0, sjprFixedHeader+len(sidecar)+8*scans+len(body))
	out = append(out, sjprMagic...)
	out = append(out, sjprVersion, uint8(quality))
	out = binary.BigEndian.AppendUint32(out, uint32(im.W))
	out = binary.BigEndian.AppendUint32(out, uint32(im.H))
	out = append(out, uint8(scans))
	out = binary.BigEndian.AppendUint16(out, uint16(len(sidecar)))
	out = append(out, sidecar...)
	for j := range scans {
		out = binary.BigEndian.AppendUint32(out, uint32(lens[j]))
		out = binary.BigEndian.AppendUint32(out, crcs[j])
	}
	return append(out, body...), nil
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
	// A scan payload can never exceed what the writer stores for its own
	// planes; the cap rejects absurd indexes before any allocation.
	h.total = h.w*h.h + 2*((h.w+1)/2)*((h.h+1)/2)
	for j := 0; j < h.scans; j++ {
		h.lens[j] = int(binary.BigEndian.Uint32(data[idx+8*j : idx+8*j+4]))
		h.crcs[j] = binary.BigEndian.Uint32(data[idx+8*j+4 : idx+8*j+8])
		if h.lens[j] <= 0 || h.lens[j] > maxScan(h.total, j) {
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

	// An index too short for what its scan decodes to is refused before the
	// planes are sized from the header.
	for j := 0; j < k; j++ {
		if !canYield(hd.lens[j], scanLen(total, j)) {
			return ycc{}, fmt.Errorf("%w: %d-byte scan %d cannot hold %dx%d", ErrCorrupt, hd.lens[j], j, hd.w, hd.h)
		}
	}
	// The refinement scans decode after the planes, one bit plane each, and
	// are folded in where the prediction is undone.
	extra, span := uint(hd.scans-k), scanLen(total, 1)
	p := newYCC(hd.w, hd.h, yShift+extra, cShift+extra, bufpool.GetBytes(total+(k-1)*span))
	p.bits = k - 1

	// The base scan decodes alone, the refinement scans after it in step, a
	// lane each.
	var lanes [MaxScans]lane
	off := hd.body
	for j := range k {
		payload := data[off : off+hd.lens[j]]
		off += hd.lens[j]
		if crc32.Checksum(payload, sjprCRC) != hd.crcs[j] {
			p.release()
			return ycc{}, fmt.Errorf("%w: scan %d CRC mismatch", ErrCorrupt, j)
		}
		if j == 0 {
			lanes[j] = lane{data: payload, planes: [3][]byte{p.y, p.cb, p.cr}, n: 3}
		} else {
			lanes[j] = lane{data: payload, planes: [3][]byte{p.buf[total+(j-1)*span:][:span]}, n: 1}
		}
	}
	j, err := inflateLanes(lanes[:1])
	if err == nil && k > 1 {
		j, err = inflateLanes(lanes[1:k])
		j++
	}
	for i := 1; err == nil && i < k; i++ {
		if pad := p.buf[total+i*span-1] >> uint((total-1)&7+1); pad != 0 {
			j, err = i, fmt.Errorf("pad bits %#x", pad)
		}
	}
	if err != nil {
		p.release()
		return ycc{}, fmt.Errorf("%w: scan %d: %v", ErrCorrupt, j, err)
	}
	return p, nil
}

// scanLen is what scan j of a container with total plane values decodes to:
// the values, or one bit of each.
func scanLen(total, j int) int {
	if j == 0 {
		return total
	}
	return (total + 7) / 8
}

// maxScan is the longest scan j the writer produces: its planes — three in
// the base scan, one after — each stored behind its marker byte.
func maxScan(total, j int) int {
	if j == 0 {
		return total + 3
	}
	return scanLen(total, j) + 1
}

// bitSpread[b] holds bit i of b in bit 0 of byte i.
var bitSpread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// refinement is where the refinement bits of a plane's values are: bit
// planes, one per refinement scan and the first the highest bit, one after
// another in packed, the plane's first value at index off of each.
type refinement struct {
	packed []uint8
	planes int
	off    int
}

// fold appends the refinement bits to the values vals, whose first is the
// plane's value at: each value v becomes v<<1 | its bit, a bit plane at a
// time, for the eight values of a byte of the bit planes at once — at the ends
// of vals, in a copy that has the byte's eight. The mask drops the bit a value
// of 128 or more (a corrupt base scan) would push into its neighbour, as the
// uint8 shift does.
func (r refinement) fold(vals []uint8, at int) {
	span, k := len(r.packed)/r.planes, r.off+at
	for i := 0; i < len(vals); {
		g, s := (k+i)>>3, (k+i)&7
		n := min(8-s, len(vals)-i)
		var w [8]uint8
		word := vals[i:]
		if n < 8 {
			word = w[:]
			copy(w[s:], vals[i:i+n])
		}
		x := binary.LittleEndian.Uint64(word)
		for j := g; j < len(r.packed); j += span {
			x = x<<1&0xfefefefefefefefe | bitSpread[r.packed[j]]
		}
		binary.LittleEndian.PutUint64(word, x)
		if n < 8 {
			copy(vals[i:i+n], w[s:])
		}
		i += n
	}
}
