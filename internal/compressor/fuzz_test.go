package compressor

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/imaging"
)

// The three parsers of the sidecar path, fuzzed to the rule the artifact and
// plan parsers are held to: a typed error, or exactly the right bytes — never
// a panic, never a wrong label.

// fuzzDict is a dictionary trained on the label corpus, with its blob.
func fuzzDict(f *testing.F) (*Dict, []byte) {
	d, err := TrainDict(labelCorpus(60, 5), 0)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return d, blob
}

// allBytes is every byte value once: literals, token bytes and the escape.
func allBytes() []byte {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return all
}

// FuzzUnmarshalDict: whatever UnmarshalDict accepts marshals back to the
// bytes it was parsed from, and encodes and decodes text to itself.
func FuzzUnmarshalDict(f *testing.F) {
	_, blob := fuzzDict(f)
	f.Add(blob)
	f.Add([]byte{})
	f.Add(append([]byte(nil), dictMagic...))
	f.Add(append(append([]byte(nil), dictMagic...), 0, 0, 0))                         // no escape, no entries
	f.Add(append(append([]byte(nil), dictMagic...), 0, '0', 0))                       // no escape, yet an escape byte
	f.Add(append(append([]byte(nil), dictMagic...), 1, 0xff, 1, 'x', 0, 'a', 0, 'b')) // a single symbol
	f.Add(append(append([]byte(nil), dictMagic...), allBytes()...))
	for cut := len(dictMagic); cut < len(blob); cut += 5 {
		f.Add(blob[:cut])
	}
	for bit := 0; bit < 8*(len(dictMagic)+3+10); bit++ {
		d := append([]byte(nil), blob...)
		d[bit/8] ^= 1 << (bit % 8)
		f.Add(d)
	}

	text := append(append([]byte("class=cat;id=7;"), allBytes()...), "class=dog;flip=1"...)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDict(data)
		if err != nil {
			if !errors.Is(err, ErrDict) {
				t.Fatalf("rejection is not ErrDict: %v", err)
			}
			return
		}
		again, err := d.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted dictionary marshals to %x (err %v), parsed from %x", again, err, data)
		}
		back, err := d.Decode(d.Encode(text))
		if err != nil || !bytes.Equal(back, text) {
			t.Fatalf("accepted dictionary does not round-trip text (err %v)", err)
		}
	})
}

// FuzzDictDecode: any plain text survives Encode then Decode byte for byte,
// and the same bytes read as an encoded stream are ErrDict or decode to text
// that itself survives the round trip.
func FuzzDictDecode(f *testing.F) {
	d, _ := fuzzDict(f)
	f.Add([]byte{})
	f.Add([]byte("x"))
	f.Add(bytes.Repeat([]byte("x"), 300)) // a single symbol
	f.Add(allBytes())
	if d.hasEscape {
		f.Add([]byte{d.escape})
		f.Add([]byte{d.escape, d.escape})
	}
	for _, l := range labelCorpus(4, 6) {
		f.Add(l)
		f.Add(d.Encode(l))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := d.Decode(d.Encode(data))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("%x encodes and decodes to %x (err %v)", data, back, err)
		}
		plain, err := d.Decode(data)
		if err != nil {
			if !errors.Is(err, ErrDict) {
				t.Fatalf("rejection is not ErrDict: %v", err)
			}
			return
		}
		if len(plain) > maxExpansion*len(data) {
			t.Fatalf("%d bytes decoded to %d, over %d a byte", len(data), len(plain), maxExpansion)
		}
		back, err = d.Decode(d.Encode(plain))
		if err != nil || !bytes.Equal(back, plain) {
			t.Fatalf("decoded text %x does not survive a round trip (err %v)", plain, err)
		}
	})
}

// FuzzSidecarLabel: a container yields its label or a typed error, and every
// prefix of a container that yields a label yields the same one — the
// sidecar precedes every scan.
func FuzzSidecarLabel(f *testing.F) {
	d, _ := fuzzDict(f)
	im, err := imaging.Synthesize(imaging.SynthParams{W: 16, H: 12, Detail: 0.5, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, label := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte("x"), 40), allBytes(), labelCorpus(1, 7)[0]} {
		c, err := imaging.EncodeProgressiveSidecar(im, 80, imaging.MaxScans, d.Encode(label))
		if err != nil {
			f.Fatal(err)
		}
		got, err := SidecarLabel(c, d)
		if err != nil || !bytes.Equal(got, label) {
			f.Fatalf("label %x came back as %x (err %v)", label, got, err)
		}
		f.Add(c)
		f.Add(c[:len(c)/2])
		if d.hasEscape { // a sidecar ending in a dangling escape
			bad, err := imaging.EncodeProgressiveSidecar(im, 80, 2, append(d.Encode(label), d.escape))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("SJPR"))
	f.Add([]byte("SJPR0000000000000")) // a version this build does not read
	f.Add(allBytes())

	f.Fuzz(func(t *testing.T, container []byte) {
		label, err := SidecarLabel(container, d)
		if err != nil {
			if !errors.Is(err, imaging.ErrCorrupt) && !errors.Is(err, imaging.ErrTruncated) &&
				!errors.Is(err, imaging.ErrUnsupported) && !errors.Is(err, ErrDict) {
				t.Fatalf("rejection is neither one of imaging's nor ErrDict: %v", err)
			}
			return
		}
		for k := 1; k <= imaging.MaxScans; k++ {
			prefix, err := imaging.SlicePrefix(container, k)
			if err != nil {
				continue // the container itself is a prefix shorter than k scans
			}
			again, err := SidecarLabel(prefix, d)
			if err != nil || !bytes.Equal(again, label) {
				t.Fatalf("the %d-scan prefix carries label %x (err %v), the container %x", k, again, err, label)
			}
		}
	})
}
