package imaging

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// rowsDims are the images the sliced form is tested on: several bands with
// an odd width and height (a short last band, chroma rounding up), band
// edges exactly on the height, images under one band, and several strips, a
// narrow last one and strip edges exactly on the width.
var rowsDims = [][2]int{{37, 53}, {64, 48}, {41, 70}, {20, 9}, {33, 16}, {150, 37}, {128, 20}, {65, 33}}

// sliced is Slice into a buffer of its own.
func sliced(data []byte, drop int, rows Rect) []byte {
	dst := make([]byte, len(data))
	return dst[:Slice(dst, data, drop, rows)]
}

func isRowSliced(data []byte) bool { return len(data) > headerSize && data[4]&rowsFlag != 0 }

// randRect draws a rect of a w×h image, anywhere.
func randRect(r *rand.Rand, w, h int) Rect {
	rw, rh := 1+r.IntN(w), 1+r.IntN(h)
	return Rect{X: r.IntN(w - rw + 1), Y: r.IntN(h - rh + 1), W: rw, H: rh}
}

// Property: over containers of 1–4 scans at every fidelity, the sliced form
// of a rect decodes that rect, and every other rect of the units it holds, to
// exactly the pixels of the prefix it was cut from. It ships no more than the
// prefix, and is the prefix itself when the rect reads every unit.
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
					sp := spanOf(rect)
					switch every := sp == gridOf(dim[0], dim[1]).all(); {
					case every && !bytes.Equal(form, prefix):
						t.Fatalf("%s: a crop of every unit ships %d bytes, not the %d-byte prefix", name, len(form), len(prefix))
					case len(form) > len(prefix), isRowSliced(form) && len(form) == len(prefix):
						t.Fatalf("%s: ships %d bytes of a %d-byte prefix", name, len(form), len(prefix))
					}
					// Another rect of the same units: one inside them.
					x0, x1 := sp.s0*stripCols, min(sp.s1*stripCols, dim[0])
					y0, y1 := sp.b0*bandRows, min(sp.b1*bandRows, dim[1])
					inner := randRect(r, x1-x0, y1-y0)
					inner.X, inner.Y = inner.X+x0, inner.Y+y0
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
							t.Fatalf("%s: crop %+v of the sliced form differs from the prefix's", name, q)
						}
						got.Release()
						want.Release()
					}
				}
			}
		}
	}
}

// The sliced form refuses every reader but a crop of its units, by name.
func TestRowSlicedFormRefusedByName(t *testing.T) {
	im := synthFor(t, 3, 150, 80, 0.5)
	data, err := EncodeProgressive(im, DefaultQuality, 3)
	if err != nil {
		t.Fatal(err)
	}
	rect := Rect{X: 70, Y: 20, W: 30, H: 30} // bands 1–3 of 5, strip 1 of 3
	form := sliced(data, 1, rect)
	if !isRowSliced(form) {
		t.Fatal("a crop of bands 1–3 of 5 in strip 1 of 3 shipped no sliced form")
	}
	if w, h, err := DecodeDims(form); err != nil || w != 150 || h != 80 {
		t.Fatalf("DecodeDims = %d×%d, %v", w, h, err)
	}
	for _, q := range []Rect{{X: 70, Y: 0, W: 8, H: 8}, {X: 70, Y: 40, W: 8, H: 30}, {X: 0, Y: 0, W: 150, H: 80},
		{X: 60, Y: 20, W: 8, H: 8}, {X: 120, Y: 30, W: 9, H: 8}, {X: 0, Y: 20, W: 150, H: 10}} {
		if _, err := DecodeCropResize(form, q, 8, 8); !errors.Is(err, errSliced) {
			t.Errorf("crop %+v outside bands 1–3 or strip 1: %v, want ErrSliced", q, err)
		}
	}
	for _, q := range []Rect{rect, {X: 64, Y: 16, W: 64, H: 48}, {X: 127, Y: 63, W: 1, H: 1}} {
		im, err := DecodeCropResize(form, q, 8, 8)
		if err != nil {
			t.Errorf("crop %+v inside bands 1–3 and strip 1: %v", q, err)
			continue
		}
		im.Release()
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
		t.Error("FidelityPrefixSize sliced a sliced form")
	}
	if n := Slice(make([]byte, len(form)), form, 1, rect); n != len(form) {
		t.Errorf("Slice of a sliced form shipped %d of its %d bytes", n, len(form))
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
// as a sliced form, they decode only a crop of the units they say they hold;
// read as a stored object, the form Slice cuts for a rect decodes that rect
// exactly as the object's prefix does, and every crop of the units it holds,
// and refuses every other crop with errSliced.
func FuzzSliceRows(f *testing.F) {
	// Small images: several bands and strips in few bytes, for a quick
	// minimizer.
	for d, dim := range [][2]int{{70, 20}, {5, 53}, {130, 9}, {66, 33}} {
		im := synthForFuzz(f, dim[0], dim[1])
		for scans := 1; scans <= MaxScans; scans++ {
			data, err := EncodeProgressive(im, DefaultQuality, scans)
			if err != nil {
				f.Fatal(err)
			}
			rect := Rect{X: min(64, dim[0]-1), W: 1 + d, Y: min(17+d, dim[1]-1), H: 1}
			f.Add(data, uint8(scans-1), uint16(rect.X), uint16(rect.Y), uint16(rect.W), uint16(rect.H), uint16(60), uint16(20), uint16(9), uint16(9))
			f.Add(sliced(data, 1, rect), uint8(0), uint16(0), uint16(0), uint16(70), uint16(40), uint16(64), uint16(18), uint16(3), uint16(3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, drop uint8, rx, ry, rw, rh, qx, qy, qw, qh uint16) {
		w, h, err := DecodeDims(data)
		if err != nil || w*h > 1<<16 {
			return
		}
		rows, q := Rect{X: int(rx), Y: int(ry), W: int(rw), H: int(rh)}, Rect{X: int(qx), Y: int(qy), W: int(qw), H: int(qh)}
		if im, err := DecodeCropResize(data, q, 8, 8); err == nil {
			im.Release()
			if c, _ := parse(data); c.rows != 0 && !spanOf(q).within(c.cut) {
				t.Fatalf("decoded %+v of a form holding %+v", q, c.cut)
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
			t.Fatalf("a sliced form of %d bytes for a %d-byte prefix", len(form), len(prefix))
		}
		c, err := parse(form)
		if err != errSliced {
			t.Fatalf("Slice shipped a form parse does not read through: %v", err)
		}
		for _, r := range []Rect{rows, q} {
			got, err := DecodeCropResize(form, r, 8, 8)
			defer got.Release()
			if r.within(w, h) && !spanOf(r).within(c.cut) {
				if !errors.Is(err, errSliced) {
					t.Fatalf("crop %+v outside %+v: %v, want ErrSliced", r, c.cut, err)
				}
				continue
			}
			want, wantErr := DecodeCropResize(prefix, r, 8, 8)
			defer want.Release()
			if (err == nil) != (wantErr == nil) || err == nil && !got.Equal(want) {
				t.Fatalf("crop %+v: the form's err %v, the prefix's %v, or the pixels differ", r, err, wantErr)
			}
		}
	})
}

// TestSliceCost logs what a raw fetch ships of benchSet's objects for their
// rects, as a share of what is stored, at one scan and at MaxScans — the lines
// CI prints beside the index's share — and holds each under what SJPG
// version 5's strips measured (0.600 and 0.685; version 4's bands shipped
// 0.734 and 0.738) plus 0.01: a change that widens what a raw fetch ships
// fails here.
func TestSliceCost(t *testing.T) {
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
		bound   float64
	}{{1, func(i int) []byte { return set[i].data }, 0.610}, {MaxScans, func(i int) []byte { return prog[i] }, 0.695}} {
		shipped, stored := 0, 0
		for i := range set {
			data := depth.objects(i)
			shipped += len(sliced(data, 0, set[i].rect))
			stored += len(data)
		}
		frac := float64(shipped) / float64(stored)
		t.Logf("slice at L = %d: %d B of %d B mean object (%.3f)", depth.scans, shipped/len(set), stored/len(set), frac)
		if frac > depth.bound {
			t.Errorf("a raw fetch ships %.3f of benchSet's objects at L = %d, over %.3f", frac, depth.scans, depth.bound)
		}
	}
}
