package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
)

var goldenPlan = &policy.Plan{Name: "golden", Splits: []uint8{0, 3, 1, 2, 0, 4, 2, 0}}

// TestPlanVersionedRoundTrip: a plan is written under the current format's
// magic, right behind which comes its name, and reads back unchanged.
func TestPlanVersionedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenPlan); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, []byte(planMagic+"\x06\x00golden")) {
		t.Fatalf("file starts %q, want the magic and then the name", raw[:min(len(raw), 16)])
	}
	p, err := readPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != goldenPlan.Name || !bytes.Equal(p.Splits, goldenPlan.Splits) {
		t.Fatalf("plan %+v", p)
	}
}

// TestPlanGoldenFiles: the three retired generations — nothing outside this
// repository ever wrote them — are corrupt streams now, and a fidelity-free
// plan takes the one format with an all-zero fidelity vector behind the
// splits.
func TestPlanGoldenFiles(t *testing.T) {
	for _, name := range []string{"plan_v1.golden", "plan_v2.golden", "plan_v3.golden"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readPlan(bytes.NewReader(old)); !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: err = %v, want errCorrupt", name, err)
		}
	}

	want := append([]byte(planMagic), 6, 0)
	want = append(append(want, goldenPlan.Name...), byte(goldenPlan.N()), 0, 0, 0)
	want = append(append(want, goldenPlan.Splits...), make([]byte, goldenPlan.N())...)
	var out bytes.Buffer
	if err := writePlan(&out, goldenPlan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("fidelity-free plan wrote % x, want % x", out.Bytes(), want)
	}
}

// TestPlanVersionedFileHelpers exercises the path-based save/load pair.
func TestPlanVersionedFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.sophon")
	if err := SavePlan(path, goldenPlan); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != goldenPlan.Name || !bytes.Equal(p.Splits, goldenPlan.Splits) {
		t.Fatalf("loaded %+v", p)
	}
}

// TestReadPlanVersionedCorrupt covers streams cut inside the magic, the
// name's length, the name and the sample count.
func TestReadPlanVersionedCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, goldenPlan); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(planMagic) - 1, len(planMagic) + 1, len(planMagic) + 5, len(planMagic) + 10} {
		if _, err := readPlan(bytes.NewReader(raw[:cut])); !errors.Is(err, errCorrupt) {
			t.Fatalf("header truncated at %d: err = %v, want errCorrupt", cut, err)
		}
	}
}
