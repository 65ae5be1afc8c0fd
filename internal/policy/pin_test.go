package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/netsim"
)

// planPinDigest is the sha256 over every pinned plan's splits, fidelity
// drops and ModelFor terms. A refactor of the planner must leave it as it
// is; a deliberate change of what the planner decides re-pins it.
const planPinDigest = "f772daba6f643f9179973eb3bc4d7b9c12f43c0a2a954aadd372647a415bdf25"

// TestPlansPinned pins what every policy plans for two generated datasets
// over 100 and 1000 Mbps links, shard counts 1, 2 and 4 and storage-core
// budgets 0, 1 and 4: the
// baselines, Oracle, SOPHON with the step guard, and SOPHON with a fixed
// fidelity ladder, the only cases that run the guard and the progressive
// pass on a sharded tier and on a tier with no storage cores.
func TestPlansPinned(t *testing.T) {
	traces := []*dataset.Trace{openImages(t, 2000), imageNet(t, 2000)}
	policies := append(All(), Oracle{}, &Sophon{StepGuard: true}, &Sophon{Fidelity: &FidelityPass{
		Model: FidelityModel{
			Levels:   4,
			ByteFrac: []float64{0.22, 0.45, 0.71, 1},
			Quality:  []float64{0.84, 0.93, 0.975, 1},
		},
		QualityFloor:     0.9,
		MeanQualityFloor: 0.96,
	}})
	h := sha256.New()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	for _, tr := range traces {
		for _, mbps := range []float64{100, 1000} {
			for _, shards := range []int{1, 2, 4} {
				for _, cores := range []int{0, 1, 4} {
					env := paperEnv(cores)
					env.Bandwidth = netsim.Mbps(mbps)
					env.Shards = shards
					for _, p := range policies {
						plan := mustPlan(t, p, tr, env)
						m, err := ModelFor(tr, plan, env)
						if err != nil {
							t.Fatalf("%s %s shards=%d cores=%d: %v", tr.Name, p.Name(), shards, cores, err)
						}
						fmt.Fprintf(h, "%s|%s|%v|%d|%d|", tr.Name, p.Name(), mbps, shards, cores)
						h.Write(plan.Splits)
						put(int64(len(plan.Fidelity)))
						h.Write(plan.Fidelity)
						for _, d := range []int64{int64(m.TG), int64(m.TCC), int64(m.TCS), int64(m.TNet)} {
							put(d)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != planPinDigest {
		t.Fatalf("plan digest %s, pinned %s", got, planPinDigest)
	}
}
