package compressor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Dict is a trained byte-pair dictionary in the OnPair style: training
// greedily promotes the most frequent adjacent symbol pair in a corpus to a
// single-byte token drawn from the byte values the corpus never uses, so
// structured low-entropy streams — label records, metadata sidecars —
// shrink to token sequences with no bit-level entropy coder. Entries are
// hierarchical (a pair's sides may themselves be tokens), and one reserved
// escape byte keeps Encode total: inputs that do use a token's byte value
// round-trip via escaping, merely without gain.
//
// Dictionaries are trained once per stream family and shared out-of-band
// (MarshalBinary); encoded blobs carry only token bytes, so the dictionary
// amortizes across a dataset instead of riding in every record like a
// DEFLATE header would. No stored format uses it: the image container has
// no label sidecar.
type Dict struct {
	escape    byte
	hasEscape bool
	codes     []byte    // token byte for entry i
	pairs     [][2]rune // entry i expands to two symbols; <256 literal, >=256 entry index+256
	reserved  [256]bool // escape + all token bytes
	entryOf   [256]int  // token byte -> entry index, -1 otherwise
	expSize   []int     // fully-expanded byte length of entry i
}

// Dictionary limits. MaxDictEntries is bounded by the byte values available
// for tokens; maxExpansion rejects unmarshaled dictionaries whose entries
// would expand pathologically.
const (
	MaxDictEntries = 255
	maxExpansion   = 1 << 20
)

// ErrDict reports a malformed dictionary or encoded stream.
var ErrDict = errors.New("compressor: corrupt dictionary data")

// TrainDict builds a dictionary from a corpus of representative streams.
// maxEntries caps the table (clamped to MaxDictEntries and the unused byte
// values available); 0 means the maximum. A corpus that uses all 256 byte
// values yields a passthrough dictionary — Encode degenerates to a copy.
func TrainDict(corpus [][]byte, maxEntries int) (*Dict, error) {
	if maxEntries < 0 {
		return nil, fmt.Errorf("compressor: negative maxEntries %d", maxEntries)
	}
	if maxEntries == 0 || maxEntries > MaxDictEntries {
		maxEntries = MaxDictEntries
	}
	d := &Dict{}
	for i := range d.entryOf {
		d.entryOf[i] = -1
	}
	var used [256]bool
	total := 0
	for _, s := range corpus {
		total += len(s)
		for _, b := range s {
			used[b] = true
		}
	}
	var unused []byte
	for v := 0; v < 256; v++ {
		if !used[v] {
			unused = append(unused, byte(v))
		}
	}
	if len(unused) < 2 || total == 0 {
		// No room for an escape plus at least one token: passthrough.
		return d, nil
	}
	d.escape = unused[0]
	d.hasEscape = true
	d.reserved[d.escape] = true
	tokens := unused[1:]
	if len(tokens) > maxEntries {
		tokens = tokens[:maxEntries]
	}

	// Work on symbol streams so substitution can never straddle an escape.
	work := make([][]rune, len(corpus))
	for i, s := range corpus {
		w := make([]rune, len(s))
		for j, b := range s {
			w[j] = rune(b)
		}
		work[i] = w
	}

	type pair struct{ l, r rune }
	for _, code := range tokens {
		counts := make(map[pair]int)
		for _, w := range work {
			for j := 0; j+1 < len(w); j++ {
				counts[pair{w[j], w[j+1]}]++
			}
		}
		best := pair{-1, -1}
		bestN := 0
		for p, n := range counts {
			if n > bestN || (n == bestN && (p.l < best.l || (p.l == best.l && p.r < best.r))) {
				best, bestN = p, n
			}
		}
		// A pair seen fewer than 3 times does not pay for its table entry.
		if bestN < 3 {
			break
		}
		sym := rune(256 + len(d.codes))
		d.codes = append(d.codes, code)
		d.pairs = append(d.pairs, [2]rune{best.l, best.r})
		d.reserved[code] = true
		d.entryOf[code] = len(d.codes) - 1
		for i, w := range work {
			work[i] = substitute(w, best.l, best.r, sym)
		}
	}
	d.computeExpansion()
	return d, nil
}

// substitute rewrites w replacing non-overlapping (l, r) pairs with sym,
// scanning left to right.
func substitute(w []rune, l, r, sym rune) []rune {
	out := w[:0]
	for i := 0; i < len(w); i++ {
		if i+1 < len(w) && w[i] == l && w[i+1] == r {
			out = append(out, sym)
			i++
			continue
		}
		out = append(out, w[i])
	}
	return out
}

func (d *Dict) computeExpansion() {
	d.expSize = make([]int, len(d.codes))
	size := func(s rune) int {
		if s < 256 {
			return 1
		}
		return d.expSize[s-256]
	}
	// Entries only reference earlier entries, so one forward pass suffices.
	for i := range d.codes {
		d.expSize[i] = size(d.pairs[i][0]) + size(d.pairs[i][1])
	}
}

// Entries returns the number of trained pair entries.
func (d *Dict) Entries() int { return len(d.codes) }

// Encode compresses data with the trained table. The output is freshly
// allocated; Encode never fails — bytes colliding with reserved token
// values are escaped, so any input round-trips.
func (d *Dict) Encode(data []byte) []byte {
	if len(d.codes) == 0 {
		if !d.hasEscape {
			return append([]byte(nil), data...)
		}
		// Escape-only dictionary: still must protect the escape byte.
	}
	syms := make([]rune, len(data))
	for i, b := range data {
		syms[i] = rune(b)
	}
	for i := range d.codes {
		syms = substitute(syms, d.pairs[i][0], d.pairs[i][1], rune(256+i))
	}
	out := make([]byte, 0, len(syms))
	for _, s := range syms {
		if s >= 256 {
			out = append(out, d.codes[s-256])
			continue
		}
		b := byte(s)
		if d.reserved[b] {
			out = append(out, d.escape, b)
			continue
		}
		out = append(out, b)
	}
	return out
}

// Decode expands an encoded stream. A truncated escape sequence or a token
// byte from a mismatched dictionary surfaces as ErrDict.
func (d *Dict) Decode(data []byte) ([]byte, error) {
	out := make([]byte, 0, len(data)*2)
	var stack []rune
	for i := 0; i < len(data); i++ {
		b := data[i]
		if d.hasEscape && b == d.escape {
			i++
			if i >= len(data) {
				return nil, fmt.Errorf("%w: dangling escape", ErrDict)
			}
			out = append(out, data[i])
			continue
		}
		e := d.entryOf[b]
		if e < 0 {
			out = append(out, b)
			continue
		}
		stack = append(stack[:0], rune(256+e))
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s < 256 {
				out = append(out, byte(s))
				continue
			}
			p := d.pairs[s-256]
			stack = append(stack, p[1], p[0])
		}
	}
	return out, nil
}

// dictMagic tags a marshaled dictionary.
var dictMagic = []byte("SDIC1")

// MarshalBinary serializes the dictionary for out-of-band sharing.
func (d *Dict) MarshalBinary() ([]byte, error) {
	out := append([]byte(nil), dictMagic...)
	if d.hasEscape {
		out = append(out, 1, d.escape)
	} else {
		out = append(out, 0, 0)
	}
	out = append(out, byte(len(d.codes)))
	for i, code := range d.codes {
		out = append(out, code)
		out = binary.BigEndian.AppendUint16(out, uint16(d.pairs[i][0]))
		out = binary.BigEndian.AppendUint16(out, uint16(d.pairs[i][1]))
	}
	return out, nil
}

// UnmarshalDict parses a marshaled dictionary, validating that entries only
// reference literals or earlier entries (so expansion terminates) and that
// no entry expands beyond maxExpansion.
func UnmarshalDict(data []byte) (*Dict, error) {
	if len(data) < len(dictMagic)+3 || string(data[:len(dictMagic)]) != string(dictMagic) {
		return nil, ErrDict
	}
	d := &Dict{}
	for i := range d.entryOf {
		d.entryOf[i] = -1
	}
	p := len(dictMagic)
	switch data[p] {
	case 0:
		if data[p+1] != 0 {
			return nil, fmt.Errorf("%w: escape byte %#x without the escape flag", ErrDict, data[p+1])
		}
	case 1:
		d.hasEscape = true
		d.escape = data[p+1]
		d.reserved[d.escape] = true
	default:
		return nil, fmt.Errorf("%w: escape flag %d", ErrDict, data[p])
	}
	n := int(data[p+2])
	p += 3
	if len(data) != p+5*n {
		return nil, fmt.Errorf("%w: %d bytes for %d entries", ErrDict, len(data), n)
	}
	if n > 0 && !d.hasEscape {
		return nil, fmt.Errorf("%w: entries without an escape byte", ErrDict)
	}
	for i := 0; i < n; i++ {
		code := data[p]
		l := rune(binary.BigEndian.Uint16(data[p+1 : p+3]))
		r := rune(binary.BigEndian.Uint16(data[p+3 : p+5]))
		p += 5
		if d.reserved[code] {
			return nil, fmt.Errorf("%w: token byte %#x reused", ErrDict, code)
		}
		if l >= rune(256+i) || r >= rune(256+i) {
			return nil, fmt.Errorf("%w: entry %d references symbol %d/%d", ErrDict, i, l, r)
		}
		d.codes = append(d.codes, code)
		d.pairs = append(d.pairs, [2]rune{l, r})
		d.reserved[code] = true
		d.entryOf[code] = i
	}
	d.computeExpansion()
	for i, sz := range d.expSize {
		if sz > maxExpansion {
			return nil, fmt.Errorf("%w: entry %d expands to %d bytes", ErrDict, i, sz)
		}
	}
	return d, nil
}

// DictStats summarizes a dictionary's yield on a corpus.
type DictStats struct {
	Entries    int
	RawBytes   int
	CodedBytes int
	Ratio      float64 // coded/raw; 1 means no gain
}

// Stats encodes every corpus stream and reports the aggregate ratio.
func (d *Dict) Stats(corpus [][]byte) DictStats {
	st := DictStats{Entries: d.Entries()}
	for _, s := range corpus {
		st.RawBytes += len(s)
		st.CodedBytes += len(d.Encode(s))
	}
	if st.RawBytes > 0 {
		st.Ratio = float64(st.CodedBytes) / float64(st.RawBytes)
	} else {
		st.Ratio = 1
	}
	return st
}

// TopTokens returns up to n entry expansions ordered by expanded length,
// longest first — a debugging view of what the dictionary learned.
func (d *Dict) TopTokens(n int) []string {
	idx := make([]int, len(d.codes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if d.expSize[idx[a]] != d.expSize[idx[b]] {
			return d.expSize[idx[a]] > d.expSize[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]string, 0, n)
	for _, i := range idx[:n] {
		expanded, err := d.Decode([]byte{d.codes[i]})
		if err != nil {
			continue
		}
		out = append(out, string(expanded))
	}
	return out
}
