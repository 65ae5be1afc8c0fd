package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
)

var goldenFidelityPlan = &policy.Plan{
	Name:     "golden-fid",
	Splits:   []uint8{0, 3, 0, 2, 0, 4, 0, 0},
	Fidelity: []uint8{1, 0, 3, 0, 2, 0, 0, 1},
}

// A plan carrying a fidelity vector round-trips with its header; a
// fidelity-free plan — nil or all-zero vector — takes the
// same format and reads back as full fidelity.
func TestPlanV3RoundTrip(t *testing.T) {
	meta := PlanMeta{Version: 9, EnvFingerprint: 0xabad1dea}
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenFidelityPlan, meta); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	p, got, err := readPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta %+v, want %+v", got, meta)
	}
	if p.Name != goldenFidelityPlan.Name || !bytes.Equal(p.Splits, goldenFidelityPlan.Splits) ||
		!bytes.Equal(p.Fidelity, goldenFidelityPlan.Fidelity) {
		t.Fatalf("plan %+v", p)
	}

	var files [][]byte
	for _, fid := range [][]uint8{nil, {0, 0, 0}} {
		flat := &policy.Plan{Name: "flat", Splits: []uint8{0, 1, 2}, Fidelity: fid}
		buf.Reset()
		if err := writePlan(&buf, flat, meta); err != nil {
			t.Fatal(err)
		}
		files = append(files, append([]byte(nil), buf.Bytes()...))
		back, _, err := readPlan(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.ReducedCount() > 0 || !bytes.Equal(back.Splits, flat.Splits) {
			t.Fatalf("fidelity-free plan read back as %+v", back)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("nil and all-zero fidelity vectors serialize differently")
	}
}

// writePlan with a zero header keeps the fidelity vector rather than
// flattening the plan.
func TestWritePlanKeepsFidelity(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenFidelityPlan, PlanMeta{}); err != nil {
		t.Fatal(err)
	}
	p, meta, err := readPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta != (PlanMeta{}) {
		t.Fatalf("WritePlan wrote meta %+v, want zero", meta)
	}
	if !bytes.Equal(p.Fidelity, goldenFidelityPlan.Fidelity) {
		t.Fatalf("fidelity %v", p.Fidelity)
	}
}

// TestPlanV3Golden pins the plan file format byte for byte.
func TestPlanV3Golden(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("testdata", "plan_v3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := PlanMeta{Version: 11, EnvFingerprint: 0x0badc0de05060708}
	p, meta, err := readPlan(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	if meta != wantMeta {
		t.Fatalf("v3 golden meta %+v, want %+v", meta, wantMeta)
	}
	if p.Name != goldenFidelityPlan.Name || !bytes.Equal(p.Fidelity, goldenFidelityPlan.Fidelity) {
		t.Fatalf("v3 golden plan %+v", p)
	}
	var out bytes.Buffer
	if err := writePlan(&out, p, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), v3) {
		t.Fatal("v3 writer no longer reproduces the golden bytes")
	}
}

func TestPlanV3Corrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenFidelityPlan, PlanMeta{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Truncated fidelity vector.
	if _, _, err := readPlan(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("accepted truncated fidelity vector")
	}
	// Out-of-range fidelity (>= imaging.MaxScans).
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] = 200
	if _, _, err := readPlan(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted out-of-range fidelity")
	}
	// Trailing garbage after the vector.
	if _, _, err := readPlan(bytes.NewReader(append(append([]byte(nil), raw...), 0))); err == nil {
		t.Fatal("accepted trailing data")
	}
	// A mis-sized in-memory fidelity vector must refuse to serialize.
	broken := &policy.Plan{Name: "b", Splits: []uint8{0, 0, 0}, Fidelity: []uint8{1}}
	if err := writePlan(&buf, broken, PlanMeta{}); err == nil {
		t.Fatal("accepted mis-sized fidelity vector")
	}
}
