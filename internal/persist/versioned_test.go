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

// TestPlanVersionedRoundTrip: the header survives a write/read cycle.
func TestPlanVersionedRoundTrip(t *testing.T) {
	meta := PlanMeta{Version: 12, EnvFingerprint: 0xdeadbeef}
	var buf bytes.Buffer
	if err := WritePlan(&buf, goldenPlan, meta); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	p, got, err := ReadPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta %+v, want %+v", got, meta)
	}
	if p.Name != goldenPlan.Name || !bytes.Equal(p.Splits, goldenPlan.Splits) {
		t.Fatalf("plan %+v", p)
	}
}

// TestPlanGoldenFiles: the two retired generations — nothing outside this
// repository ever wrote them — are corrupt streams now, and a fidelity-free
// plan takes the one format: the old v2 layout under the current magic with
// an all-zero fidelity vector behind the splits.
func TestPlanGoldenFiles(t *testing.T) {
	for _, name := range []string{"plan_v1.golden", "plan_v2.golden"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadPlan(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	v2, err := os.ReadFile(filepath.Join("testdata", "plan_v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(planMagic), v2[len(planMagic):]...)
	want = append(want, make([]byte, goldenPlan.N())...)
	var out bytes.Buffer
	if err := WritePlan(&out, goldenPlan, PlanMeta{Version: 7, EnvFingerprint: 0xfeedface01020304}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("fidelity-free plan is not the v2 layout plus a zero fidelity vector")
	}
}

// TestPlanVersionedFileHelpers exercises the path-based save/load pair.
func TestPlanVersionedFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.sophon")
	meta := PlanMeta{Version: 2, EnvFingerprint: 42}
	if err := SavePlan(path, goldenPlan, meta); err != nil {
		t.Fatal(err)
	}
	p, got, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta || p.N() != goldenPlan.N() {
		t.Fatalf("loaded %+v %+v", p, got)
	}
}

// TestReadPlanVersionedCorrupt covers truncated headers.
func TestReadPlanVersionedCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlan(&buf, goldenPlan, PlanMeta{Version: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(planMagic) + 2, len(planMagic) + 9} {
		if _, _, err := ReadPlan(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("accepted header truncated at %d", cut)
		}
	}
}
