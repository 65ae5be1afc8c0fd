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

// TestPlanV3RoundTrip: a plan carrying a fidelity vector (the layout
// version 3 introduced) round-trips; a fidelity-free plan — nil or all-zero
// vector — takes the same format and reads back as full fidelity.
func TestPlanV3RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenFidelityPlan); err != nil {
		t.Fatal(err)
	}
	p, err := readPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != goldenFidelityPlan.Name || !bytes.Equal(p.Splits, goldenFidelityPlan.Splits) ||
		!bytes.Equal(p.Fidelity, goldenFidelityPlan.Fidelity) {
		t.Fatalf("plan %+v", p)
	}

	var files [][]byte
	for _, fid := range [][]uint8{nil, {0, 0, 0}} {
		flat := &policy.Plan{Name: "flat", Splits: []uint8{0, 1, 2}, Fidelity: fid}
		buf.Reset()
		if err := writePlan(&buf, flat); err != nil {
			t.Fatal(err)
		}
		files = append(files, append([]byte(nil), buf.Bytes()...))
		back, err := readPlan(&buf)
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

// writePlan keeps the fidelity vector rather than flattening the plan.
func TestWritePlanKeepsFidelity(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenFidelityPlan); err != nil {
		t.Fatal(err)
	}
	p, err := readPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Fidelity, goldenFidelityPlan.Fidelity) {
		t.Fatalf("fidelity %v", p.Fidelity)
	}
}

// TestPlanV3Golden pins the plan file format byte for byte: the fidelity
// layout of version 3 under the current magic, testdata/plan_v4.golden.
func TestPlanV3Golden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "plan_v4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := readPlan(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != goldenFidelityPlan.Name || !bytes.Equal(p.Splits, goldenFidelityPlan.Splits) ||
		!bytes.Equal(p.Fidelity, goldenFidelityPlan.Fidelity) {
		t.Fatalf("golden plan %+v", p)
	}
	var out bytes.Buffer
	if err := writePlan(&out, goldenFidelityPlan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatal("the writer no longer reproduces the golden bytes")
	}
}

func TestPlanV3Corrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenFidelityPlan); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Truncated fidelity vector.
	if _, err := readPlan(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("accepted truncated fidelity vector")
	}
	// Out-of-range fidelity (>= imaging.MaxScans).
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] = 200
	if _, err := readPlan(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted out-of-range fidelity")
	}
	// Trailing garbage after the vector.
	if _, err := readPlan(bytes.NewReader(append(append([]byte(nil), raw...), 0))); err == nil {
		t.Fatal("accepted trailing data")
	}
	// A mis-sized in-memory fidelity vector must refuse to serialize.
	broken := &policy.Plan{Name: "b", Splits: []uint8{0, 0, 0}, Fidelity: []uint8{1}}
	if err := writePlan(&buf, broken); err == nil {
		t.Fatal("accepted mis-sized fidelity vector")
	}
}
