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

func TestPlanFeedPublishAndSubscribe(t *testing.T) {
	env := testEnv()
	feed, err := NewPlanFeed(&PlanSnapshot{Version: 1, Plan: mustUniform(t, 10, 0), Env: env, Epoch: 1, Reason: "initial"})
	if err != nil {
		t.Fatal(err)
	}
	sub := feed.Subscribe()

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
	select {
	case got := <-sub:
		if got != v2 {
			t.Fatalf("subscriber got %v, want v2", got)
		}
	default:
		t.Fatal("subscriber did not receive the published snapshot")
	}

	// Latest-wins coalescing: an undrained subscriber sees only the newest.
	v3 := &PlanSnapshot{Version: 3, Plan: mustUniform(t, 10, 2), Env: env}
	v4 := &PlanSnapshot{Version: 4, Plan: mustUniform(t, 10, 3), Env: env}
	if err := feed.Publish(v3); err != nil {
		t.Fatal(err)
	}
	if err := feed.Publish(v4); err != nil {
		t.Fatal(err)
	}
	if got := <-sub; got != v4 {
		t.Fatalf("coalesced subscriber got v%d, want v4", got.Version)
	}
}

func TestEnvFingerprint(t *testing.T) {
	a := testEnv()
	b := testEnv()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal envs fingerprint differently")
	}
	b.Bandwidth /= 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("bandwidth change did not move the fingerprint")
	}
	c := testEnv()
	c.StorageCores++
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("core change did not move the fingerprint")
	}
	// GPUCount 0 and 1 are the same effective environment.
	d := testEnv()
	d.GPUCount = 1
	if a.Fingerprint() != d.Fingerprint() {
		t.Fatal("GPUCount 0 vs 1 should fingerprint identically")
	}
}
