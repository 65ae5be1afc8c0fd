package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/policy"
)

func sampleTrace(t testing.TB, n int) *dataset.Trace {
	t.Helper()
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(n), 17)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPlanRoundTrip(t *testing.T) {
	tr := sampleTrace(t, 300)
	env := policy.Env{Bandwidth: 62.5e6, ComputeCores: 48, StorageCores: 4, StorageSlowdown: 1,
		GPU: gpu.AlexNet}
	plan, err := policy.NewSophon().Plan(tr, env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writePlan(&buf, plan, PlanMeta{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := readPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != plan.Name || got.N() != plan.N() {
		t.Fatalf("header: %q/%d", got.Name, got.N())
	}
	for i := range plan.Splits {
		if got.Splits[i] != plan.Splits[i] {
			t.Fatalf("split %d differs", i)
		}
	}
}

func TestNilInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := writePlan(&buf, nil, PlanMeta{}); err == nil {
		t.Fatal("accepted nil plan")
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	plan, _ := policy.NewUniformPlan("p", 5, 2)
	var pbuf bytes.Buffer
	if err := writePlan(&pbuf, plan, PlanMeta{}); err != nil {
		t.Fatal(err)
	}
	planBytes := pbuf.Bytes()

	planCases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("YYYYYYYY"), planBytes[8:]...),
		"truncated": planBytes[:len(planBytes)-1],
		"trailing":  append(append([]byte(nil), planBytes...), 1),
		"bad split": func() []byte {
			b := append([]byte(nil), planBytes...)
			b[len(b)-1-plan.N()] = 99 // last split, ahead of the fidelity vector
			return b
		}(),
	}
	for name, b := range planCases {
		if _, _, err := readPlan(bytes.NewReader(b)); err == nil {
			t.Errorf("ReadPlan accepted %s", name)
		}
	}
}

// claimedPlan is a header that claims 2^24 samples and carries none of them.
func claimedPlan() []byte {
	b := append([]byte(planMagic), make([]byte, 4+8+2)...) // zero header, empty name
	return binary.LittleEndian.AppendUint32(b, 1<<24)
}

// TestClaimedCountCostsNothing: a header that claims 2^24 samples and ends
// there is errCorrupt, and the reader allocates for the bytes that arrived,
// not for the count the stream claims.
func TestClaimedCountCostsNothing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readPlan(bytes.NewReader(claimedPlan()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("allocated %d B for a stream that claims 2^24 samples", alloc)
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	plan, _ := policy.NewUniformPlan("resize", 50, 2)
	planPath := filepath.Join(dir, "plan.bin")
	if err := SavePlan(planPath, plan, PlanMeta{}); err != nil {
		t.Fatal(err)
	}
	lp, _, err := LoadPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if lp.OffloadedCount() != 50 {
		t.Fatalf("loaded plan offloads %d", lp.OffloadedCount())
	}

	if _, _, err := LoadPlan(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("loaded missing file")
	}
}

// Property: arbitrary valid plans round-trip exactly.
func TestPlanRoundTripProperty(t *testing.T) {
	f := func(name string, raw []byte) bool {
		if len(raw) == 0 || len(raw) > 1000 {
			return true
		}
		if len(name) > 200 {
			name = name[:200]
		}
		splits := make([]uint8, len(raw))
		for i, b := range raw {
			splits[i] = b % (dataset.OpCount + 1)
		}
		in := &policy.Plan{Name: name, Splits: splits}
		var buf bytes.Buffer
		if err := writePlan(&buf, in, PlanMeta{}); err != nil {
			return false
		}
		out, _, err := readPlan(&buf)
		if err != nil || out.Name != in.Name || out.N() != in.N() {
			return false
		}
		for i := range splits {
			if out.Splits[i] != splits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
