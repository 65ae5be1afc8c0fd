package imaging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"repro/internal/bufpool"
)

// The index (codec.go): what it refuses, before any buffer is sized; how a
// misstated band start is caught; which faults a crop reads; and what the
// index costs.

// bandIndex is a container taken apart: its header, each scan's planes and
// the entries of its index, each plane's size and then its bands' lengths in
// bits.
type bandIndex struct {
	header  []byte
	planes  [][3][]byte
	entries [][3][]uint64
}

func parseBandIndex(t *testing.T, data []byte) bandIndex {
	t.Helper()
	c, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	b := bandIndex{header: data[:headerSize]}
	for j := range c.scans {
		var planes [3][]byte
		var entries [3][]uint64
		for i, o := 0, c.start[j]; i < 3; i, o = i+1, o+c.size[j][i] {
			planes[i] = data[o : o+c.size[j][i]]
			entries[i] = []uint64{uint64(c.size[j][i])}
			if data[o] == 0 {
				entries[i][0] = 0 // stored
			}
			for index := c.index[j][i]; len(index) > 0; {
				v, k := binary.Uvarint(index)
				entries[i], index = append(entries[i], v), index[k:]
			}
		}
		b.planes, b.entries = append(b.planes, planes), append(b.entries, entries)
	}
	return b
}

// index returns b's index: each scan's CRC, over its planes as they are, and
// its entries as uvarints.
func (b bandIndex) index() []byte {
	var index []byte
	for j, scan := range b.entries {
		index = binary.BigEndian.AppendUint32(index, crc32.Checksum(slices.Concat(b.planes[j][:]...), crcTable))
		for _, e := range scan {
			for _, v := range e {
				index = binary.AppendUvarint(index, v)
			}
		}
	}
	return index
}

// stream writes b back as a stream behind index, b's own if it is nil.
func (b bandIndex) stream(index []byte) []byte {
	if index == nil {
		index = b.index()
	}
	out := binary.AppendUvarint(slices.Clone(b.header), uint64(len(index)))
	out = append(out, index...)
	for _, scan := range b.planes {
		out = append(out, slices.Concat(scan[:]...)...)
	}
	return out
}

func (b bandIndex) clone() bandIndex {
	c := bandIndex{header: b.header, planes: slices.Clone(b.planes), entries: slices.Clone(b.entries)}
	for j := range c.entries {
		for i := range c.entries[j] {
			c.entries[j][i] = slices.Clone(b.entries[j][i])
		}
	}
	return c
}

// codesAt returns where plane i of scan 0's codes start in its bytes.
func (b bandIndex) codesAt(i int) int {
	p := b.planes[0][i]
	if p[0] == 0 {
		return 1
	}
	return 2 + int(p[0]) + int(p[1+int(p[0])])
}

// bandStreams is a 21×40 image — three bands, the last 8 rows — as a
// one-scan container with coded planes and, noise, as one whose luma plane
// is stored.
func bandStreams(t *testing.T) (coded, stored []byte) {
	t.Helper()
	coded, err := Encode(synthFor(t, 11, 21, 40, 0.5), DefaultQuality)
	if err != nil {
		t.Fatal(err)
	}
	if stored, err = Encode(noiseImage(21, 40, 11), DefaultQuality); err != nil {
		t.Fatal(err)
	}
	for i, p := range parseBandIndex(t, coded).planes[0] {
		if p[0] == 0 {
			t.Fatalf("coded stream: plane %d stored", i)
		}
	}
	if parseBandIndex(t, stored).planes[0][0][0] != 0 {
		t.Fatal("stored stream: luma coded")
	}
	return coded, stored
}

// arenaGets runs f and returns how many buffers it drew from the arena and
// its error.
func arenaGets(f func() (*Image, error)) (uint64, error) {
	before := bufpool.ByteStats().Gets
	im, err := f()
	im.Release()
	return bufpool.ByteStats().Gets - before, err
}

// TestBandIndexRejections: each damaged index is refused, as ErrCorrupt in the
// words that name its fault, by Decode and by DecodeCropResize over any rect
// with Decode's words — before any buffer is drawn.
func TestBandIndexRejections(t *testing.T) {
	coded, stored := bandStreams(t)
	for name, data := range map[string][]byte{"coded": coded, "stored": stored} {
		b := parseBandIndex(t, data)
		if got := b.stream(nil); !bytes.Equal(got, data) {
			t.Fatalf("%s: the stream taken apart and written back differs", name)
		}
		codeBits := uint64(8 * (len(b.planes[0][0]) - b.codesAt(0)))
		mutated := func(f func(e *[3][]uint64)) (out []byte) {
			defer func() { recover() }() // a stored plane 0 has no band lengths: no stream
			c := b.clone()
			f(&c.entries[0])
			return c.stream(nil)
		}
		type indexCase struct {
			name, want string // want: words of Decode's error
			stream     []byte
		}
		cases := []indexCase{
			{"a length that runs past the plane", "scan 0 plane 0 band 0: a truncated length, or",
				mutated(func(e *[3][]uint64) { e[0][1] = codeBits + 1 })},
			{"lengths that do not sum to the plane", "scan 0 plane 1: bands end",
				mutated(func(e *[3][]uint64) { e[1][len(e[1])-1] -= 8 })},
			{"a band too short to yield its rows", "left for 336 bytes",
				mutated(func(e *[3][]uint64) { e[0][1], e[0][2] = e[0][1]+e[0][2]-1, 1 })},
			{"a truncated uvarint", "scan 0 plane 2 band 2: a truncated length", b.stream(b.index()[:len(b.index())-1])},
			{"trailing index bytes", "index: 1 trailing index bytes", b.stream(append(b.index(), 0))},
			{"a truncated index length", "truncated uvarint", append(slices.Clone(b.header), 0x80)},
			{"an index longer than the stream", "bytes of index in", binary.AppendUvarint(slices.Clone(b.header), uint64(len(data)))},
			{"no CRC", "scan 0: no CRC", b.stream(b.index()[:3])},
			{"a band count one short", "scan 0 plane 2 band 2: a truncated length", mutated(func(e *[3][]uint64) { e[2] = e[2][:len(e[2])-1] })},
			{"a band count one over", "index: 1 trailing index bytes", mutated(func(e *[3][]uint64) { e[2] = append(e[2], 8) })},
			{"a plane size past the writer's", "scan 0 plane 2: truncated uvarint, or 222 bytes for 220", mutated(func(e *[3][]uint64) { e[2][0] = 222 })},
			{"a byte after the scans", "1 bytes after the scans", append(b.stream(nil), 0)},
			{"a plane whose tables run past it", "scan 0 plane 1: 1 bytes hold no codes",
				mutated(func(e *[3][]uint64) { e[1][0], e[2][0] = 1, e[1][0]+e[2][0]-1 })},
		}
		cases = slices.DeleteFunc(cases, func(c indexCase) bool { return c.stream == nil })
		if name == "stored" { // plane 0 has no band lengths to damage, but its size must stay unsaid
			cases = append(cases, indexCase{"a stored plane's size stated", "scan 0 plane 0: stored is false, its marker 0",
				mutated(func(e *[3][]uint64) { e[0][0] = uint64(len(b.planes[0][0])) })})
		}
		if _, err := Decode(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range cases {
			gets, decodeErr := arenaGets(func() (*Image, error) { return Decode(c.stream) })
			if !errors.Is(decodeErr, ErrCorrupt) || !strings.Contains(decodeErr.Error(), c.want) || gets != 0 {
				t.Errorf("%s, %s: Decode err %v after %d arena requests, want ErrCorrupt naming %q after none", name, c.name, decodeErr, gets, c.want)
				continue
			}
			for _, rect := range []Rect{{W: 21, H: 40}, {W: 5, H: 5}, {Y: 35, W: 21, H: 5}, {X: 100, W: 5, H: 5}} {
				gets, err := arenaGets(func() (*Image, error) { return DecodeCropResize(c.stream, rect, 4, 4) })
				if err == nil || err.Error() != decodeErr.Error() || gets != 0 {
					t.Errorf("%s, %s: crop %+v err %v after %d arena requests, want Decode's %v after none", name, c.name, rect, err, gets, decodeErr)
				}
			}
		}
	}
}

// TestMisstatedBandStart: an index that moves the start of band 1 of a plane
// a bit later, its lengths still adding up, is refused by Decode and by every
// crop that decodes band 0 — whose end is that start — with Decode's error.
func TestMisstatedBandStart(t *testing.T) {
	coded, stored := bandStreams(t)
	for name, data := range map[string][]byte{"coded": coded, "stored": stored} {
		b := parseBandIndex(t, data)
		for p := range b.planes[0] {
			if b.planes[0][p][0] == 0 {
				continue // stored: its bands start where their bytes do
			}
			for _, d := range []int64{-1, 1} {
				c := b.clone()
				e := c.entries[0][p]
				e[1], e[2] = uint64(int64(e[1])+d), uint64(int64(e[2])-d)
				stream := c.stream(nil)
				_, decodeErr := Decode(stream)
				if !errors.Is(decodeErr, ErrCorrupt) {
					t.Errorf("%s plane %d, band 1 starting %+d bits off: Decode err %v, want ErrCorrupt", name, p, d, decodeErr)
					continue
				}
				for _, rect := range []Rect{{W: 21, H: 40}, {W: 21, H: 1}, {Y: 15, W: 3, H: 2}, {Y: 3, W: 3, H: 20}} {
					_, err := DecodeCropResize(stream, rect, 4, 4)
					if err == nil || err.Error() != decodeErr.Error() {
						t.Errorf("%s plane %d, band 1 starting %+d bits off: crop %+v err %v, want Decode's %v", name, p, d, rect, err, decodeErr)
					}
				}
			}
		}
	}
}

// TestCropParityPerBand: a bit flipped in one band of one plane, where Decode
// refuses the stream for it, is refused with Decode's words by every crop
// whose rows fall in that band, having drawn as many buffers; a crop of the
// other bands is not asked to notice.
func TestCropParityPerBand(t *testing.T) {
	coded, _ := bandStreams(t)
	b := parseBandIndex(t, coded)
	for p := range b.planes[0] {
		bit := 8 * b.codesAt(p)
		for band, bits := range b.entries[0][p][1:] {
			flipped := false
			for at := bit; at < bit+int(bits) && !flipped; at += 3 {
				c := b.clone()
				c.planes[0][p] = bytes.Clone(c.planes[0][p])
				c.planes[0][p][at/8] ^= 0x80 >> (at % 8)
				stream := c.stream(nil)
				wantGets, decodeErr := arenaGets(func() (*Image, error) { return Decode(stream) })
				if decodeErr == nil {
					continue
				}
				flipped = true
				if want := fmt.Sprintf("band %d", band); !strings.Contains(decodeErr.Error(), want) {
					t.Errorf("plane %d: a bit flipped in band %d: Decode err %v names another band", p, band, decodeErr)
				}
				for _, rect := range []Rect{{Y: 16 * band, W: 21, H: 1}, {X: 7, Y: 16 * band, W: 9, H: min(16, 40-16*band)}} {
					gets, err := arenaGets(func() (*Image, error) { return DecodeCropResize(stream, rect, 3, 3) })
					if err == nil || err.Error() != decodeErr.Error() || gets != wantGets {
						t.Errorf("plane %d band %d: crop %+v err %v after %d arena requests, want Decode's %v after %d",
							p, band, rect, err, gets, decodeErr, wantGets)
					}
				}
			}
			if !flipped {
				t.Errorf("plane %d band %d: no flipped bit makes Decode refuse", p, band)
			}
			bit += int(bits)
		}
	}
}

// TestBandIndexCost logs what the index costs benchSet's objects at one scan
// and at MaxScans, the lines CI prints beside the line count, and holds each
// under 0.5 %.
func TestBandIndexCost(t *testing.T) {
	set, err := benchSet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := benchProgressive()
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []struct {
		scans   int
		objects func(i int) []byte
	}{{1, func(i int) []byte { return set[i].data }}, {MaxScans, func(i int) []byte { return prog[i] }}} {
		index, total := 0, 0
		for i := range set {
			data := depth.objects(i)
			index += scansAt(data) - headerSize
			total += len(data)
		}
		frac := float64(index) / float64(total)
		t.Logf("index at L = %d: %d B of %d B mean object (%.2f %%)", depth.scans, index/len(set), total/len(set), 100*frac)
		if frac > 0.005 {
			t.Errorf("the index is %.2f %% of benchSet's objects at L = %d, over 0.5 %%", 100*frac, depth.scans)
		}
	}
}
