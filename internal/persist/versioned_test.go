package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

var goldenPlan = &policy.Plan{Name: "golden", Splits: []uint8{0, 3, 1, 2, 0, 4, 2, 0}}

// TestPlanVersionedRoundTrip: the header survives a write/read cycle, and
// the header-discarding reader accepts the same bytes.
func TestPlanVersionedRoundTrip(t *testing.T) {
	meta := PlanMeta{Version: 12, EnvFingerprint: 0xdeadbeef}
	var buf bytes.Buffer
	if err := WritePlanVersioned(&buf, goldenPlan, meta); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	p, got, err := ReadPlanVersioned(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta %+v, want %+v", got, meta)
	}
	if p.Name != goldenPlan.Name || !bytes.Equal(p.Splits, goldenPlan.Splits) {
		t.Fatalf("plan %+v", p)
	}
	if p2, err := ReadPlan(bytes.NewReader(raw)); err != nil || p2.N() != goldenPlan.N() {
		t.Fatalf("ReadPlan: %v", err)
	}
}

// TestWritePlanSnapshot derives the header from the snapshot's env.
func TestWritePlanSnapshot(t *testing.T) {
	env := policy.Env{
		Bandwidth: netsim.Mbps(500), ComputeCores: 8, StorageCores: 4,
		StorageSlowdown: 1, GPU: gpu.AlexNet,
	}
	snap := &policy.PlanSnapshot{Version: 3, Plan: goldenPlan, Env: env}
	var buf bytes.Buffer
	if err := WritePlanSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	_, meta, err := ReadPlanVersioned(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 3 || meta.EnvFingerprint != env.Fingerprint() {
		t.Fatalf("snapshot meta %+v", meta)
	}
	if err := WritePlanSnapshot(&buf, nil); err == nil {
		t.Fatal("accepted nil snapshot")
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
		if _, _, err := ReadPlanVersioned(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
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
	if err := WritePlanVersioned(&out, goldenPlan, PlanMeta{Version: 7, EnvFingerprint: 0xfeedface01020304}); err != nil {
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
	if err := SavePlanVersioned(path, goldenPlan, meta); err != nil {
		t.Fatal(err)
	}
	p, got, err := LoadPlanVersioned(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta || p.N() != goldenPlan.N() {
		t.Fatalf("loaded %+v %+v", p, got)
	}
	// LoadPlan reads the same file without the header.
	if p2, err := LoadPlan(path); err != nil || p2.N() != goldenPlan.N() {
		t.Fatalf("LoadPlan: %v", err)
	}
}

// TestReadPlanVersionedCorrupt covers truncated headers.
func TestReadPlanVersionedCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlanVersioned(&buf, goldenPlan, PlanMeta{Version: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(planMagic) + 2, len(planMagic) + 9} {
		if _, _, err := ReadPlanVersioned(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("accepted header truncated at %d", cut)
		}
	}
}
