package trainsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// fixedCosts replaces a trace's op times with a per-pixel table of the shape
// the live benchmark plans from (ns per source pixel for Decode, per output
// pixel for the rest), so a plan is a function of sizes and dimensions alone.
func fixedCosts(tr *dataset.Trace, crop int) *dataset.Trace {
	perPixelNs := [dataset.OpCount]float64{20, 14, 0.8, 2.9, 2.5}
	out := &dataset.Trace{Name: tr.Name, Records: append([]dataset.Record(nil), tr.Records...)}
	for i := range out.Records {
		r := &out.Records[i]
		r.OpTimes[0] = time.Duration(perPixelNs[0] * float64(r.Width*r.Height))
		for k := 1; k < dataset.OpCount; k++ {
			r.OpTimes[k] = time.Duration(perPixelNs[k] * float64(crop*crop))
		}
	}
	return out
}

// TestProfilingEpochPlansMatchTrace: the profiling epoch prices stage 1 at
// its law size where Pipeline.Trace packs it, and no plan moves for it. Its
// collected trace and a Trace-built trace of the same samples, both costed by
// a fixed per-pixel table, give byte-identical cuts and fidelity drops under
// every policy, and the same Oracle traffic.
func TestProfilingEpochPlansMatchTrace(t *testing.T) {
	const n, crop = 32, 64
	store, err := storage.FromImageSet(newImageSet(t, n))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarnessOver(t, store, 1)
	cfg := h.config()
	tr := newTrainer(t, cfg)
	collector, err := profiler.NewCollector(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunEpoch(1, nil, collector); err != nil {
		t.Fatal(err)
	}
	profiled, err := collector.Trace("profiled")
	if err != nil {
		t.Fatal(err)
	}
	reference, err := profiler.NewCollector(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		raw, err := store.Get(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := h.pipe.Trace(raw, pipeline.Seed{Job: cfg.JobID, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		w, hgt, err := imaging.DecodeDims(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Observe(uint32(i), st, w, hgt); err != nil {
			t.Fatal(err)
		}
	}
	traced, err := reference.Trace("traced")
	if err != nil {
		t.Fatal(err)
	}
	for i := range traced.Records {
		p, r := profiled.Records[i], traced.Records[i]
		p.StageSizes[1], p.OpTimes = r.StageSizes[1], r.OpTimes
		if p != r || profiled.Records[i].StageSizes[1] < r.StageSizes[1] {
			t.Fatalf("sample %d: profiled %+v, traced %+v; only stage 1 may differ, priced up", i, profiled.Records[i], r)
		}
	}

	a, b := fixedCosts(profiled, crop), fixedCosts(traced, crop)
	env := policy.Env{
		Bandwidth:       netsim.Mbps(20),
		ComputeCores:    2,
		StorageCores:    1,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	fidelity := &policy.Sophon{Fidelity: &policy.FidelityPass{
		Model: policy.FidelityModel{
			Levels:   4,
			ByteFrac: []float64{0.20, 0.42, 0.68, 1},
			Quality:  []float64{0.86, 0.94, 0.98, 1},
		},
		QualityFloor:     0.9,
		MeanQualityFloor: 0.95,
	}}
	for _, pol := range append([]policy.Policy{fidelity}, policy.All()...) {
		pa, err := pol.Plan(a, env)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := pol.Plan(b, env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa.Splits, pb.Splits) || !bytes.Equal(pa.Fidelity, pb.Fidelity) {
			t.Errorf("%s: profiled plan %v / %v, traced %v / %v", pol.Name(), pa.Splits, pa.Fidelity, pb.Splits, pb.Fidelity)
		}
		if pol == policy.Policy(fidelity) && (pa.OffloadedCount() == 0 || pa.ReducedCount() == 0) {
			t.Errorf("%s offloads %d and reduces %d samples: the comparison is vacuous", pol.Name(), pa.OffloadedCount(), pa.ReducedCount())
		}
	}
	var traffic [2]int64
	for i, tr := range []*dataset.Trace{a, b} {
		plan, err := policy.Oracle{}.Plan(tr, env)
		if err != nil {
			t.Fatal(err)
		}
		if traffic[i], err = plan.Traffic(tr); err != nil {
			t.Fatal(err)
		}
	}
	if traffic[0] != traffic[1] {
		t.Errorf("Oracle traffic %d profiled, %d traced", traffic[0], traffic[1])
	}
}
