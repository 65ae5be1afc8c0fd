package loadgen

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
)

func TestSpecFromPlan(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := policy.NewSophon().Plan(tr, policy.Env{
		ComputeCores:    16,
		StorageCores:    8,
		Bandwidth:       netsim.Mbps(1000),
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	})
	if err != nil {
		t.Fatal(err)
	}

	spec := SpecFromPlan(tr, plan, 0.4)
	sum := spec.Mix[0] + spec.Mix[1] + spec.Mix[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mix sums to %v, want 1", sum)
	}
	if math.Abs(spec.Mix[0]-0.4) > 1e-9 {
		t.Fatalf("hit fraction %v, want 0.4", spec.Mix[0])
	}
	wantOffFrac := float64(plan.OffloadedCount()) / float64(tr.N())
	gotOffFrac := spec.Mix[1] / (1 - spec.Mix[0])
	if math.Abs(gotOffFrac-wantOffFrac) > 1e-9 {
		t.Fatalf("offloaded fraction %v, want %v", gotOffFrac, wantOffFrac)
	}
	if off := plan.OffloadedCount(); off == 0 || off == tr.N() {
		t.Fatalf("the plan offloads %d of %d samples; the per-class means need both classes", off, tr.N())
	}
	if spec.OffloadedBytes <= 0 || spec.OffloadCPU <= 0 {
		t.Fatalf("offloaded stats missing: %+v", spec)
	}
	// Artifacts must be no bigger than the mean raw sample — that's the
	// point of offloading.
	if spec.RawBytes > 0 && spec.OffloadedBytes > spec.RawBytes*4 {
		t.Fatalf("offloaded bytes %d implausibly large vs raw %d", spec.OffloadedBytes, spec.RawBytes)
	}

	// A spec straight from the plan must drive the generator.
	spec.Name = "probe"
	spec.Sessions = 50
	spec.Rate = 2
	rep, err := Run(Config{
		Seed:            1,
		Duration:        500 * time.Millisecond,
		Shards:          2,
		CoresPerShard:   4,
		LinkBytesPerSec: 250e6,
		Jobs:            []JobSpec{spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("derived spec produced no completions")
	}
}

func TestSpecFromPlanNoPlan(t *testing.T) {
	spec := SpecFromPlan(nil, nil, 2 /* clamps to 1 */)
	if spec.Mix[0] != 1 || spec.Mix[1] != 0 || spec.Mix[2] != 0 {
		t.Fatalf("clamped hitRate mix = %v", spec.Mix)
	}
	spec = SpecFromPlan(nil, nil, -1)
	if spec.Mix[0] != 0 || spec.Mix[2] != 1 {
		t.Fatalf("no-plan mix = %v, want all raw", spec.Mix)
	}
	if spec.RawBytes <= 0 {
		t.Fatal("no-plan spec needs a positive raw size")
	}
}
