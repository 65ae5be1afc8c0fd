package persist

import (
	"bytes"
	"path/filepath"
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

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace(t, 200)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.N() != tr.N() {
		t.Fatalf("header: %q/%d", got.Name, got.N())
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
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
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(&buf)
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
	if err := WriteTrace(&buf, nil); err == nil {
		t.Fatal("accepted nil trace")
	}
	if err := WritePlan(&buf, nil); err == nil {
		t.Fatal("accepted nil plan")
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	tr := sampleTrace(t, 5)
	var tbuf bytes.Buffer
	if err := WriteTrace(&tbuf, tr); err != nil {
		t.Fatal(err)
	}
	traceBytes := tbuf.Bytes()

	plan, _ := policy.NewUniformPlan("p", 5, 2)
	var pbuf bytes.Buffer
	if err := WritePlan(&pbuf, plan); err != nil {
		t.Fatal(err)
	}
	planBytes := pbuf.Bytes()

	traceCases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXXXXXX"), traceBytes[8:]...),
		"plan magic": planBytes, // wrong kind of file
		"truncated":  traceBytes[:len(traceBytes)-3],
		"trailing":   append(append([]byte(nil), traceBytes...), 0xFF),
	}
	for name, b := range traceCases {
		if _, err := ReadTrace(bytes.NewReader(b)); err == nil {
			t.Errorf("ReadTrace accepted %s", name)
		}
	}

	planCases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("YYYYYYYY"), planBytes[8:]...),
		"trace magic": traceBytes,
		"truncated":   planBytes[:len(planBytes)-1],
		"trailing":    append(append([]byte(nil), planBytes...), 1),
		"bad split": func() []byte {
			b := append([]byte(nil), planBytes...)
			b[len(b)-1-plan.N()] = 99 // last split, ahead of the fidelity vector
			return b
		}(),
	}
	for name, b := range planCases {
		if _, err := ReadPlan(bytes.NewReader(b)); err == nil {
			t.Errorf("ReadPlan accepted %s", name)
		}
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	tr := sampleTrace(t, 50)
	tracePath := filepath.Join(dir, "trace.bin")
	if err := SaveTrace(tracePath, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 50 {
		t.Fatalf("loaded %d records", got.N())
	}

	plan, _ := policy.NewUniformPlan("resize", 50, 2)
	planPath := filepath.Join(dir, "plan.bin")
	if err := SavePlan(planPath, plan); err != nil {
		t.Fatal(err)
	}
	lp, err := LoadPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if lp.OffloadedCount() != 50 {
		t.Fatalf("loaded plan offloads %d", lp.OffloadedCount())
	}

	if _, err := LoadTrace(filepath.Join(dir, "missing.bin")); err == nil {
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
		if err := WritePlan(&buf, in); err != nil {
			return false
		}
		out, err := ReadPlan(&buf)
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
