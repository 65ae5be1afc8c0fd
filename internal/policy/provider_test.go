package policy

import (
	"testing"

	"repro/internal/gpu"
)

func testEnv() Env {
	return Env{
		Bandwidth:       62.5e6,
		ComputeCores:    8,
		StorageCores:    4,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
}

func mustUniform(t *testing.T, n, split int) *Plan {
	t.Helper()
	p, err := NewUniformPlan("test", n, split)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanFeedPublish(t *testing.T) {
	env := testEnv()
	feed, err := NewPlanFeed(&PlanSnapshot{Version: 1, Plan: mustUniform(t, 10, 0), Env: env, Epoch: 1, Reason: "initial"})
	if err != nil {
		t.Fatal(err)
	}

	if err := feed.Publish(&PlanSnapshot{Version: 1, Plan: mustUniform(t, 10, 1), Env: env}); err == nil {
		t.Fatal("equal version accepted")
	}
	if err := feed.Publish(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}

	v2 := &PlanSnapshot{Version: 2, Plan: mustUniform(t, 10, 1), Env: env, Epoch: 3, Reason: "drift"}
	if err := feed.Publish(v2); err != nil {
		t.Fatal(err)
	}
	if got := feed.Current(); got != v2 {
		t.Fatalf("Current() = %v, want v2", got)
	}
}
