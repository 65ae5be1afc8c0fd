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
// misstated unit start is caught; which faults a crop reads; and what the
// index costs.

// bandIndex is a container taken apart: its header, each scan's tables and
// codes, and the entries of its index, the tables' size and then its units'
// lengths in bits.
type bandIndex struct {
	header        []byte
	tables, codes [][]byte
	entries       [][]uint64
	grid          grid
}

func parseBandIndex(t *testing.T, data []byte) bandIndex {
	t.Helper()
	c, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	b := bandIndex{header: data[:headerSize], grid: gridOf(c.w, c.h)}
	for j := range c.scans {
		at := c.start[j] + c.tables[j]
		entries := []uint64{uint64(c.tables[j])}
		for index := c.index[j]; len(index) > 0; {
			v, k := binary.Uvarint(index)
			entries, index = append(entries, v), index[k:]
		}
		b.tables = append(b.tables, data[c.start[j]:at])
		b.codes = append(b.codes, data[at:c.start[j+1]])
		b.entries = append(b.entries, entries)
	}
	return b
}

// index returns b's index: each scan's CRC, over its bytes as they are, and
// its entries as uvarints.
func (b bandIndex) index() []byte {
	var index []byte
	for j, scan := range b.entries {
		index = binary.BigEndian.AppendUint32(index, crc32.Checksum(slices.Concat(b.tables[j], b.codes[j]), crcTable))
		for _, v := range scan {
			index = binary.AppendUvarint(index, v)
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
	for j := range b.tables {
		out = append(append(out, b.tables[j]...), b.codes[j]...)
	}
	return out
}

func (b bandIndex) clone() bandIndex {
	c := b
	c.codes, c.entries = slices.Clone(b.codes), slices.Clone(b.entries)
	for j := range c.entries {
		c.entries[j] = slices.Clone(b.entries[j])
	}
	return c
}

// unitRect is the rect of unit u of scan 0's pixels.
func (b bandIndex) unitRect(u int) Rect {
	band, strip := b.grid.unit(0, u)
	r := Rect{X: strip * stripCols, Y: band * bandRows}
	r.W, r.H = min(stripCols, b.grid.w-r.X), min(bandRows, b.grid.h-r.Y)
	return r
}

// bandStreams is a 90×40 image — three bands, the last 8 rows, of two
// strips, the last 26 columns — as a one-scan container with coded planes
// and, noise at quality 95, as one whose luma plane is stored.
func bandStreams(t *testing.T) (coded, stored []byte) {
	t.Helper()
	coded, err := Encode(synthFor(t, 11, 90, 40, 0.5), DefaultQuality)
	if err != nil {
		t.Fatal(err)
	}
	if stored, err = Encode(noiseImage(90, 40, 11), 95); err != nil {
		t.Fatal(err)
	}
	tables := parseBandIndex(t, coded).tables[0]
	for i := range 3 {
		if tables[0] == 0 {
			t.Fatalf("coded stream: plane %d stored", i)
		}
		tables = tables[refTablesLen(tables):]
	}
	if parseBandIndex(t, stored).tables[0][0] != 0 {
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
	const bound = 90*40 + 2*45*20 + 3 // scan 0's planes and a marker each
	for name, data := range map[string][]byte{"coded": coded, "stored": stored} {
		b := parseBandIndex(t, data)
		if got := b.stream(nil); !bytes.Equal(got, data) {
			t.Fatalf("%s: the stream taken apart and written back differs", name)
		}
		mutated := func(f func(e []uint64) []uint64) []byte {
			c := b.clone()
			c.entries[0] = f(c.entries[0])
			return c.stream(nil)
		}
		cases := []struct {
			name, want string // want: words of Decode's error
			stream     []byte
		}{
			{"a length past the scan's bound", "scan 0 band 0 strip 0: a truncated length, or 43225 bits for 1536 values",
				mutated(func(e []uint64) []uint64 { e[1] = 8*bound + 1; return e })},
			{"lengths that add up past the scan's bound", "over its planes' 5403",
				mutated(func(e []uint64) []uint64 { e[1], e[2] = 8*bound-8, 8*bound-8; return e })},
			{"a unit too short to yield its values", "scan 0 band 0 strip 0: a truncated length, or 1 bits for 1536 values",
				mutated(func(e []uint64) []uint64 { e[1] = 1; return e })},
			{"a truncated uvarint", "scan 0 band 2 strip 1: a truncated length", b.stream(b.index()[:len(b.index())-1])},
			{"trailing index bytes", "index: 1 trailing index bytes", b.stream(append(b.index(), 0))},
			{"a truncated index length", "truncated uvarint", append(slices.Clone(b.header), 0x80)},
			{"an index longer than the stream", "bytes of index in", binary.AppendUvarint(slices.Clone(b.header), uint64(len(data)))},
			{"no CRC", "scan 0: no CRC", b.stream(b.index()[:3])},
			{"a unit count one short", "scan 0 band 2 strip 1: a truncated length", mutated(func(e []uint64) []uint64 { return e[:len(e)-1] })},
			{"a unit count one over", "index: 1 trailing index bytes", mutated(func(e []uint64) []uint64 { return append(e, 8) })},
			{"tables past the writer's", "scan 0: truncated uvarint, or 436 bytes of tables", mutated(func(e []uint64) []uint64 { e[0] = maxTables + 1; return e })},
			{"tables a byte short", "scan 0: " + fmt.Sprint(b.entries[0][0]-1) + " bytes hold no three planes' tables",
				mutated(func(e []uint64) []uint64 { e[0]--; return e })},
			{"a byte after the scans", "1 bytes after the scans", append(b.stream(nil), 0)},
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
			for _, rect := range []Rect{{W: 90, H: 40}, {W: 5, H: 5}, {Y: 35, W: 90, H: 5}, {X: 70, W: 5, H: 5}, {X: 100, W: 5, H: 5}} {
				gets, err := arenaGets(func() (*Image, error) { return DecodeCropResize(c.stream, rect, 4, 4) })
				if err == nil || err.Error() != decodeErr.Error() || gets != 0 {
					t.Errorf("%s, %s: crop %+v err %v after %d arena requests, want Decode's %v after none", name, c.name, rect, err, gets, decodeErr)
				}
			}
		}
	}
}

// TestMisstatedBandStart: an index that moves the start of a unit a bit
// earlier or later, its lengths still adding up, is refused by Decode, naming
// the unit before it — the lowest bad one — and by every crop that decodes
// that unit, whose end is that start, with Decode's error.
func TestMisstatedBandStart(t *testing.T) {
	coded, stored := bandStreams(t)
	for name, data := range map[string][]byte{"coded": coded, "stored": stored} {
		b := parseBandIndex(t, data)
		for u := range b.grid.units(0) - 1 {
			for _, d := range []int64{-1, 1} {
				c := b.clone()
				e := c.entries[0]
				e[1+u], e[2+u] = uint64(int64(e[1+u])+d), uint64(int64(e[2+u])-d)
				stream := c.stream(nil)
				_, decodeErr := Decode(stream)
				if !errors.Is(decodeErr, ErrCorrupt) || !strings.Contains(decodeErr.Error(), b.grid.name(0, u)+":") {
					t.Errorf("%s, unit %d starting %+d bits off: Decode err %v, want ErrCorrupt naming %s", name, u+1, d, decodeErr, b.grid.name(0, u))
					continue
				}
				r := b.unitRect(u)
				for _, rect := range []Rect{{W: 90, H: 40}, r, {X: r.X, Y: r.Y, W: 1, H: 1}, {X: r.X + r.W - 1, Y: r.Y, W: 90 - r.X - r.W + 1, H: 40 - r.Y}} {
					_, err := DecodeCropResize(stream, rect, 4, 4)
					if err == nil || err.Error() != decodeErr.Error() {
						t.Errorf("%s, unit %d starting %+d bits off: crop %+v err %v, want Decode's %v", name, u+1, d, rect, err, decodeErr)
					}
				}
			}
		}
	}
}

// TestCropParityPerBand: a bit flipped in one unit, where Decode refuses the
// stream for it, is refused with Decode's words by every crop that reads that
// unit, having drawn as many buffers; a crop of the other units is not asked
// to notice.
func TestCropParityPerBand(t *testing.T) {
	coded, _ := bandStreams(t)
	b := parseBandIndex(t, coded)
	bit := 0
	for u, bits := range b.entries[0][1:] {
		flipped := false
		for at := bit; at < bit+int(bits) && !flipped; at += 3 {
			c := b.clone()
			c.codes[0] = bytes.Clone(c.codes[0])
			c.codes[0][at/8] ^= 0x80 >> (at % 8)
			stream := c.stream(nil)
			wantGets, decodeErr := arenaGets(func() (*Image, error) { return Decode(stream) })
			if decodeErr == nil {
				continue
			}
			flipped = true
			if want := b.grid.name(0, u); !strings.Contains(decodeErr.Error(), want+" ") && !strings.Contains(decodeErr.Error(), want+":") {
				t.Errorf("a bit flipped in unit %d: Decode err %v names another unit", u, decodeErr)
			}
			r := b.unitRect(u)
			for _, rect := range []Rect{{X: r.X, Y: r.Y, W: 1, H: 1}, {X: r.X + 3, Y: r.Y, W: min(9, r.W-3), H: r.H}, r} {
				gets, err := arenaGets(func() (*Image, error) { return DecodeCropResize(stream, rect, 3, 3) })
				if err == nil || err.Error() != decodeErr.Error() || gets != wantGets {
					t.Errorf("unit %d: crop %+v err %v after %d arena requests, want Decode's %v after %d",
						u, rect, err, gets, decodeErr, wantGets)
				}
			}
		}
		if !flipped {
			t.Errorf("unit %d: no flipped bit makes Decode refuse", u)
		}
		bit += int(bits)
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
