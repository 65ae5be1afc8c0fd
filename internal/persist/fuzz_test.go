package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/policy"
)

// FuzzReadPlan: the one plan reader answers every input with a plan that
// round-trips or with errCorrupt — never a panic, another error, or a plan
// whose vectors disagree with its N. Seeds: a valid file truncated at every
// byte, with each header bit flipped, under both retired magics, with a zero
// and an oversized sample count, with the fidelity vector one short, and a
// header that claims 2^24 samples and carries none.
func FuzzReadPlan(f *testing.F) {
	plan := &policy.Plan{Name: "fz", Splits: []uint8{0, 2, 0}, Fidelity: []uint8{2, 0, 1}}
	var buf bytes.Buffer
	if err := writePlan(&buf, plan, PlanMeta{Version: 4, EnvFingerprint: 7}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	header := len(planMagic) + 4 + 8
	for bit := 0; bit < 8*header; bit++ {
		flipped := bytes.Clone(valid)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	for _, magic := range []string{"SOPHPLN1", "SOPHPLN2"} {
		f.Add(append([]byte(magic), valid[len(planMagic):]...))
	}
	countAt := header + 2 + len(plan.Name)
	for _, n := range []uint32{0, maxRecords + 1} {
		bad := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(bad[countAt:], n)
		f.Add(bad)
	}
	f.Add(valid[:len(valid)-1])
	f.Add(claimedPlan())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, meta, err := readPlan(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("rejected with an untyped error: %v", err)
			}
			return
		}
		if p.N() == 0 || len(p.Splits) != p.N() || len(p.Fidelity) != p.N() {
			t.Fatalf("accepted a plan of N %d with %d splits, %d fidelity entries", p.N(), len(p.Splits), len(p.Fidelity))
		}
		var out bytes.Buffer
		if err := writePlan(&out, p, meta); err != nil {
			t.Fatalf("accepted plan failed to write: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted bytes are not what the writer produces for the plan they decode to")
		}
	})
}
