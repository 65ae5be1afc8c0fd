package loadgen

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/simclock"
)

func TestSpecFromTenant(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := sched.NewCoordinator(sched.FleetConfig{
		Cores:     8,
		Bandwidth: netsim.Mbps(1000),
		Clock:     simclock.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tenant := sched.Tenant{
		Name:   "probe",
		Weight: 3,
		Trace:  tr,
		Env: policy.Env{
			ComputeCores:    16,
			Bandwidth:       netsim.Mbps(1000),
			StorageSlowdown: 1,
			GPU:             gpu.AlexNet,
		},
	}
	if err := coord.Admit(tenant); err != nil {
		t.Fatal(err)
	}
	grant, ok := coord.Grants()["probe"]
	if !ok {
		t.Fatal("no grant for admitted tenant")
	}

	spec := SpecFromTenant(tenant, grant, 100, 5, 0.4)
	if spec.Name != "probe" || spec.Weight != 3 || spec.Sessions != 100 || spec.Rate != 5 {
		t.Fatalf("identity fields wrong: %+v", spec)
	}
	sum := spec.Mix[0] + spec.Mix[1] + spec.Mix[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mix sums to %v, want 1", sum)
	}
	if math.Abs(spec.Mix[0]-0.4) > 1e-9 {
		t.Fatalf("hit fraction %v, want 0.4", spec.Mix[0])
	}
	wantOffFrac := float64(grant.Plan.OffloadedCount()) / float64(tr.N())
	gotOffFrac := spec.Mix[1] / (1 - spec.Mix[0])
	if math.Abs(gotOffFrac-wantOffFrac) > 1e-9 {
		t.Fatalf("offloaded fraction %v, want %v", gotOffFrac, wantOffFrac)
	}
	if grant.Plan.OffloadedCount() > 0 {
		if spec.OffloadedBytes <= 0 || spec.OffloadCPU <= 0 {
			t.Fatalf("offloaded stats missing: %+v", spec)
		}
		// Artifacts must be no bigger than the mean raw sample — that's
		// the point of offloading.
		if spec.RawBytes > 0 && spec.OffloadedBytes > spec.RawBytes*4 {
			t.Fatalf("offloaded bytes %d implausibly large vs raw %d", spec.OffloadedBytes, spec.RawBytes)
		}
	}

	// A spec straight from the grant must drive the generator.
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

func TestSpecFromTenantNoPlan(t *testing.T) {
	spec := SpecFromTenant(sched.Tenant{Name: "bare"}, sched.Grant{}, 10, 1, 2 /* clamps to 1 */)
	if spec.Mix[0] != 1 || spec.Mix[1] != 0 || spec.Mix[2] != 0 {
		t.Fatalf("clamped hitRate mix = %v", spec.Mix)
	}
	spec = SpecFromTenant(sched.Tenant{Name: "bare"}, sched.Grant{}, 10, 1, -1)
	if spec.Mix[0] != 0 || spec.Mix[2] != 1 {
		t.Fatalf("no-plan mix = %v, want all raw", spec.Mix)
	}
	if spec.RawBytes <= 0 {
		t.Fatal("no-plan spec needs a positive raw size")
	}
}
