package policy

import (
	"errors"
	"fmt"
	"sync"
)

// PlanVersion identifies one immutable plan snapshot. Versions increase
// monotonically within a feed, from 1; NewPlanFeed refuses 0.
type PlanVersion uint32

// PlanSnapshot is an immutable (plan, environment) pair: the plan the
// control plane currently wants executed plus the environment it was
// computed against. Consumers must treat the snapshot and everything it
// points to as read-only — a replan publishes a NEW snapshot with a higher
// version rather than mutating an old one, so in-flight work holding a
// stale snapshot stays internally consistent.
type PlanSnapshot struct {
	// Version orders snapshots; higher supersedes lower.
	Version PlanVersion
	// Plan is the per-sample offload plan.
	Plan *Plan
	// Env is the environment the plan was computed against.
	Env Env
	// Epoch is the first training epoch the snapshot applies to.
	Epoch uint64
	// Reason records why this snapshot was produced ("initial",
	// "bandwidth-drift", "shard-loss", ...).
	Reason string
}

// String summarizes the snapshot for logs and replan histories.
func (s *PlanSnapshot) String() string {
	return fmt.Sprintf("PlanSnapshot(v%d epoch %d %q: %d/%d offloaded)",
		s.Version, s.Epoch, s.Reason, s.Plan.OffloadedCount(), s.Plan.N())
}

// PlanFeed is a live control plane's current snapshot: Publish installs a
// new one (its version must strictly increase) and Current reads it. Both
// are safe for concurrent use.
type PlanFeed struct {
	mu  sync.Mutex
	cur *PlanSnapshot
}

// NewPlanFeed starts a feed at the given initial snapshot.
func NewPlanFeed(initial *PlanSnapshot) (*PlanFeed, error) {
	if initial == nil || initial.Plan == nil {
		return nil, errors.New("policy: plan feed needs an initial snapshot with a plan")
	}
	if initial.Version == 0 {
		return nil, errors.New("policy: snapshot versions start at 1")
	}
	return &PlanFeed{cur: initial}, nil
}

// Current returns the latest snapshot; never nil.
func (f *PlanFeed) Current() *PlanSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// Publish installs snap as the current snapshot. It rejects nil plans and
// non-increasing versions, the order replan histories and fleet
// generations rely on.
func (f *PlanFeed) Publish(snap *PlanSnapshot) error {
	if snap == nil || snap.Plan == nil {
		return errors.New("policy: publish needs a snapshot with a plan")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if snap.Version <= f.cur.Version {
		return fmt.Errorf("policy: plan version %d does not supersede %d",
			snap.Version, f.cur.Version)
	}
	f.cur = snap
	return nil
}
