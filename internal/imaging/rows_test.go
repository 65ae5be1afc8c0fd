package imaging

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// rowsDims are the images the row-sliced form is tested on: several bands
// with an odd width and height (a short last band, chroma rounding up), band
// edges exactly on the height, and images under one band.
var rowsDims = [][2]int{{37, 53}, {64, 48}, {41, 70}, {20, 9}, {33, 16}}

// sliced is Slice into a buffer of its own.
func sliced(data []byte, drop int, rows Rect) []byte {
	dst := make([]byte, len(data))
	return dst[:Slice(dst, data, drop, rows)]
}

func isRowSliced(data []byte) bool { return len(data) > headerSize && data[4]&rowsFlag != 0 }

// randRect draws a rect of a w×h image, its rows anywhere.
func randRect(r *rand.Rand, w, h int) Rect {
	rw, rh := 1+r.IntN(w), 1+r.IntN(h)
	return Rect{X: r.IntN(w - rw + 1), Y: r.IntN(h - rh + 1), W: rw, H: rh}
}

// Property: over containers of 1–4 scans at every fidelity, the row-sliced
// form of a rect decodes that rect, and every other rect of the bands it
// holds, to exactly the pixels of the prefix it was cut from. It ships no
// more than the prefix, and is the prefix itself when the rect reads every
// band.
func TestSliceRowsDecodesLikeThePrefix(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 9))
	for d, dim := range rowsDims {
		im := synthFor(t, uint64(d+1), dim[0], dim[1], 0.6)
		for scans := 1; scans <= MaxScans; scans++ {
			data, err := EncodeProgressive(im, DefaultQuality, scans)
			if err != nil {
				t.Fatal(err)
			}
			for drop := 0; drop < scans; drop++ {
				prefix, err := SlicePrefix(data, scans-drop)
				if err != nil {
					t.Fatal(err)
				}
				for range 12 {
					rect := randRect(r, dim[0], dim[1])
					name := fmt.Sprintf("%dx%d L=%d drop=%d %+v", dim[0], dim[1], scans, drop, rect)
					form := sliced(data, drop, rect)
					b0, b1 := bandsOf(rect)
					switch every := b0 == 0 && b1 == (dim[1]+bandRows-1)/bandRows; {
					case every && !bytes.Equal(form, prefix):
						t.Fatalf("%s: a crop of every band ships %d bytes, not the %d-byte prefix", name, len(form), len(prefix))
					case len(form) > len(prefix), isRowSliced(form) && len(form) == len(prefix):
						t.Fatalf("%s: ships %d bytes of a %d-byte prefix", name, len(form), len(prefix))
					}
					// The same rows under another rect: a narrower one inside them.
					inner := rect
					inner.Y = b0 * bandRows
					inner.H = min(b1*bandRows, dim[1]) - inner.Y
					inner.H = 1 + r.IntN(inner.H)
					inner.Y += r.IntN(min(b1*bandRows, dim[1]) - inner.Y - inner.H + 1)
					for _, q := range []Rect{rect, inner} {
						out := 1 + r.IntN(24)
						got, err := DecodeCropResize(form, q, out, out)
						if err != nil {
							t.Fatalf("%s: crop %+v: %v", name, q, err)
						}
						want, err := DecodeCropResize(prefix, q, out, out)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s: crop %+v of the row-sliced form differs from the prefix's", name, q)
						}
						got.Release()
						want.Release()
					}
				}
			}
		}
	}
}

// The row-sliced form refuses every reader but a crop of its bands, by name.
func TestRowSlicedFormRefusedByName(t *testing.T) {
	im := synthFor(t, 3, 48, 80, 0.5)
	data, err := EncodeProgressive(im, DefaultQuality, 3)
	if err != nil {
		t.Fatal(err)
	}
	rect := Rect{X: 4, Y: 20, W: 30, H: 30} // bands 1–3 of 5
	form := sliced(data, 1, rect)
	if !isRowSliced(form) {
		t.Fatal("a crop of bands 1–3 of 5 shipped no row-sliced form")
	}
	if w, h, err := DecodeDims(form); err != nil || w != 48 || h != 80 {
		t.Fatalf("DecodeDims = %d×%d, %v", w, h, err)
	}
	for _, q := range []Rect{{X: 0, Y: 0, W: 8, H: 8}, {X: 0, Y: 40, W: 8, H: 30}, {X: 0, Y: 0, W: 48, H: 80}} {
		if _, err := DecodeCropResize(form, q, 8, 8); !errors.Is(err, errSliced) {
			t.Errorf("crop %+v outside bands 1–3: %v, want ErrSliced", q, err)
		}
	}
	for name, err := range map[string]error{
		"Decode":           func() error { _, err := Decode(form); return err }(),
		"DecodeAtFidelity": func() error { _, err := DecodeAtFidelity(form, 1); return err }(),
		"SlicePrefix":      func() error { _, err := SlicePrefix(form, 1); return err }(),
		"PrefixSize":       func() error { _, err := PrefixSize(form, 1); return err }(),
		"ProgressiveInfo":  func() error { _, _, _, _, _, err := ProgressiveInfo(form); return err }(),
	} {
		if !errors.Is(err, errSliced) {
			t.Errorf("%s: %v, want ErrSliced", name, err)
		}
	}
	if _, ok := FidelityPrefixSize(form, 1); ok {
		t.Error("FidelityPrefixSize sliced a row-sliced form")
	}
	if n := Slice(make([]byte, len(form)), form, 1, rect); n != len(form) {
		t.Errorf("Slice of a row-sliced form shipped %d of its %d bytes", n, len(form))
	}
	// Every byte it holds is one DecodeCropResize may read: cut one off the
	// end, or add one, and the form is corrupt.
	for _, bad := range [][]byte{form[:len(form)-1], append(bytes.Clone(form), 0)} {
		if _, err := DecodeCropResize(bad, rect, 8, 8); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a form of %d bytes: %v, want ErrCorrupt", len(bad), err)
		}
	}
}

// FuzzSliceRows: arbitrary bytes never panic Slice or DecodeCropResize; read
// as a row-sliced form, they decode only a crop of the bands they say they
// hold; read as a stored object, the form Slice cuts for rows decodes every
// crop of the bands it holds exactly as the prefix it was cut from does, and
// refuses every other crop with errSliced.
func FuzzSliceRows(f *testing.F) {
	// Narrow images: several bands in few bytes, for a quick minimizer.
	for d, dim := range [][2]int{{6, 40}, {5, 53}, {8, 33}, {3, 9}} {
		im := synthForFuzz(f, dim[0], dim[1])
		for scans := 1; scans <= MaxScans; scans++ {
			data, err := EncodeProgressive(im, DefaultQuality, scans)
			if err != nil {
				f.Fatal(err)
			}
			rect := Rect{W: dim[0], Y: 17 + d, H: 12}
			f.Add(data, uint8(scans-1), uint16(rect.Y), uint16(rect.H), uint16(20), uint16(9))
			f.Add(sliced(data, 1, rect), uint8(0), uint16(0), uint16(40), uint16(18), uint16(3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, drop uint8, ry, rh, qy, qh uint16) {
		w, h, err := DecodeDims(data)
		if err != nil || w*h > 1<<16 {
			return
		}
		rows, q := Rect{W: w, Y: int(ry), H: int(rh)}, Rect{W: w, Y: int(qy), H: int(qh)}
		if im, err := DecodeCropResize(data, q, 8, 8); err == nil {
			im.Release()
			if c, _ := parse(data); c.rows != 0 && (q.Y/bandRows < c.b0 || (q.Y+q.H-1)/bandRows >= c.b1) {
				t.Fatalf("decoded rows %d–%d of a form holding bands %d–%d", q.Y, q.Y+q.H, c.b0, c.b1)
			}
		}
		form, prefix := sliced(data, int(drop), rows), sliced(data, int(drop), Rect{})
		if !isRowSliced(form) || isRowSliced(data) { // Slice cut no form
			if !bytes.Equal(form, prefix) {
				t.Fatalf("Slice shipped %d bytes that are not the %d-byte prefix", len(form), len(prefix))
			}
			return
		}
		if len(form) >= len(prefix) {
			t.Fatalf("a row-sliced form of %d bytes for a %d-byte prefix", len(form), len(prefix))
		}
		c, err := parse(form)
		if err != errSliced {
			t.Fatalf("Slice shipped a form parse does not read through: %v", err)
		}
		got, err := DecodeCropResize(form, q, 8, 8)
		defer got.Release()
		if b0, b1 := bandsOf(q); q.within(w, h) && (b0 < c.b0 || b1 > c.b1) {
			if !errors.Is(err, errSliced) {
				t.Fatalf("crop %+v outside bands %d–%d: %v, want ErrSliced", q, c.b0, c.b1, err)
			}
			return
		}
		want, wantErr := DecodeCropResize(prefix, q, 8, 8)
		defer want.Release()
		if (err == nil) != (wantErr == nil) || err == nil && !got.Equal(want) {
			t.Fatalf("crop %+v: the form's err %v, the prefix's %v, or the pixels differ", q, err, wantErr)
		}
	})
}
