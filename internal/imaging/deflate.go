package imaging

import (
	"encoding/binary"
	"math/bits"
)

// The SJPG writer (DESIGN.md, "Decoder"): each residual plane is one
// dynamic-Huffman block of literals and runs of the previous byte, or stored
// blocks where coding would not shrink it, sized exactly before it is written.

const (
	minRun    = 4 // a run of three costs a length code and a bit, about three literals
	maxRun    = 258
	maxStored = 1<<16 - 1 // bytes in a stored block
)

// deflateBlock is one plane's block as the counting pass fixed it.
type deflateBlock struct {
	start, end int
	stored     bool
	bfinal     uint64              // 1 on the stream's last block
	lens       [maxHLit + 1]uint8  // literal/length code lengths, then the distance code's
	pre        [numPrecode]uint8   // code-length code lengths
	preSyms    [maxHLit + 1]uint16 // lens as code-length symbols: symbol | repeat count−11 <<5
	npre       int
}

// deflatePlanes returns prefix followed by data as a raw DEFLATE stream whose
// blocks end at ends, the last one final.
func deflatePlanes(prefix, data []byte, ends [3]int) []byte {
	var blocks [3]deflateBlock
	size, start := 0, 0 // in bits
	for i, end := range ends {
		size += blocks[i].plan(data, start, end, size)
		start = end
	}
	blocks[len(blocks)-1].bfinal = 1
	w := bitSink{out: append(make([]byte, 0, len(prefix)+(size+7)/8), prefix...)}
	for i := range blocks {
		blocks[i].write(&w, data)
	}
	w.align()
	return w.out
}

// plan fixes the block of data[start:end], which begins off bits into the
// stream, and returns its length in bits.
func (b *deflateBlock) plan(data []byte, start, end, off int) int {
	b.start, b.end, b.npre = start, end, 0
	var freq [maxHLit]int
	countBytes(data[start:end], (*[256]int)(freq[:256]))
	huff := 0
	for at, n := nextRun(data, start, end); n > 0; at, n = nextRun(data, at+n, end) {
		sym, extra, _ := lengthCode(n)
		freq[data[at]] -= n
		freq[sym]++
		huff += int(extra) + 1 // and the distance code
	}
	freq[256] = 1
	huff += codeLengths(freq[:], maxCode, b.lens[:maxHLit])

	// The code lengths, then the distance code's 1, as code-length symbols:
	// each as itself, but 11 to 138 zeros in a row as one 18.
	b.lens[maxHLit] = 1
	var preFreq [numPrecode]int
	for i := 0; i < len(b.lens); b.npre++ {
		t, k := uint16(b.lens[i]), 1
		for t == 0 && i+k < len(b.lens) && b.lens[i+k] == 0 && k < 138 {
			k++
		}
		if k < 11 {
			k = 1
		} else {
			t, huff = 18|uint16(k-11)<<5, huff+7
		}
		b.preSyms[b.npre], i = t, i+k
		preFreq[t&31]++
	}
	huff += codeLengths(preFreq[:], 7, b.pre[:]) + 3 + 5 + 5 + 4 + 3*numPrecode

	// A stored block: three header bits padded to a byte, LEN, NLEN, the bytes.
	blocks := max(1, (end-start+maxStored-1)/maxStored)
	stored := (off+3+7)&^7 - off + 8*(blocks-1) + 32*blocks + 8*(end-start)
	if b.stored = stored <= huff; b.stored {
		return stored
	}
	return huff
}

// write sends the block plan fixed.
func (b *deflateBlock) write(w *bitSink, data []byte) {
	for i := b.start; b.stored; i += maxStored {
		n, hdr := min(b.end-i, maxStored), uint64(0) // type 00
		if i+n == b.end {
			hdr = b.bfinal
		}
		w.put(hdr, 3)
		w.align()
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(n)|uint32(^uint16(n))<<16)
		w.out = append(w.out, data[i:i+n]...)
		if i+n == b.end {
			return
		}
	}
	w.put(b.bfinal|2<<1, 3)
	w.put(maxHLit-257|0<<5|(numPrecode-4)<<10, 14) // HLIT, HDIST (one code), HCLEN
	for _, s := range precodeOrder {
		w.put(uint64(b.pre[s]), 3)
	}
	var enc [maxHLit]uint32 // by symbol: code, bit-reversed, <<8 | its length
	canonical(b.pre[:], enc[:numPrecode])
	for _, t := range b.preSyms[:b.npre] {
		if w.code(enc[t&31]); t&31 == 18 {
			w.put(uint64(t>>5), 7)
		}
	}

	canonical(b.lens[:maxHLit], enc[:])
	for i := b.start; i < b.end; {
		at, n := nextRun(data, i, b.end)
		for _, v := range data[i:at] {
			w.code(enc[v])
		}
		if n > 0 {
			sym, extra, v := lengthCode(n)
			w.code(enc[sym])
			w.put(uint64(v), extra+1) // and the distance code, the bit 0
		}
		i = at + n
	}
	w.code(enc[256])
}

// lengthCode returns how a run of n is sent (RFC 1951, 3.2.5).
func lengthCode(n int) (sym int, extra, v uint) {
	if n == maxRun {
		return 285, 0, 0
	}
	extra = uint(max(bits.Len(uint(n-3))-3, 0))
	return 257 + 4*int(extra) + (n-3)>>extra, extra, uint(n-3) & (1<<extra - 1)
}

// canonical sets enc[s] to the canonical code of length lens[s], reversed.
func canonical(lens []uint8, enc []uint32) {
	var count, next [maxCode + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, uint32(0); l <= maxCode; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		enc[s] = uint32(bits.Reverse16(uint16(next[l]))>>(16-l))<<8 | uint32(l)
		next[l]++
	}
}

// nextRun returns the first position at ≥ max(i, 1) from which minRun or more
// bytes of data[:end] repeat data[at−1], and how many do, at most maxRun; else
// end, 0. No run starts inside a shorter one, nor just after it.
func nextRun(data []byte, i, end int) (at, n int) {
	for at = max(i, 1); at+minRun <= end; at += n + 1 {
		for n = 0; at+n < end && n < maxRun && data[at+n] == data[at-1]; n++ {
		}
		if n >= minRun {
			return at, n
		}
	}
	return end, 0
}

// bitSink appends a DEFLATE bit stream, least significant bit first, to out.
type bitSink struct {
	out []byte
	acc uint64 // the nb bits not yet in out
	nb  uint
}

// put writes the n low bits of v, which has no others; n ≤ 32.
func (w *bitSink) put(v uint64, n uint) {
	w.acc |= v << (w.nb & 63)
	if w.nb += n; w.nb >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc, w.nb = w.acc>>32, w.nb-32
	}
}

// code writes an enc entry.
func (w *bitSink) code(e uint32) { w.put(uint64(e>>8), uint(e&0xff)) }

// align writes the bits put has not, zero-padded to a byte.
func (w *bitSink) align() {
	for ; w.nb > 0; w.nb -= min(w.nb, 8) {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}
