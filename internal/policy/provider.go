package policy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
)

// PlanVersion identifies one immutable plan snapshot. Versions increase
// monotonically within a run; version 0 is reserved for "unversioned" (a
// bare plan handed to the trainer outside any provider).
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
	// Env is the environment the plan was computed against; its
	// Fingerprint ties persisted plans back to their planning inputs.
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

// PlanProvider is the consumer-side view of the control plane: every layer
// that used to hold a *Plan for the whole run holds a provider instead and
// re-reads Current at each epoch boundary. Implementations must make both
// methods safe for concurrent use.
type PlanProvider interface {
	// Current returns the latest snapshot; never nil.
	Current() *PlanSnapshot
	// Subscribe returns a channel delivering each newly published snapshot.
	// Delivery is latest-wins: a slow receiver may miss intermediate
	// versions but always eventually observes the newest.
	Subscribe() <-chan *PlanSnapshot
}

// PlanFeed is the publishing side of a live control plane: Publish installs
// a new snapshot (version must strictly increase) and notifies subscribers
// with latest-wins coalescing, so a subscriber that cannot keep up never
// blocks the publisher and never observes versions out of order.
type PlanFeed struct {
	mu   sync.Mutex
	cur  *PlanSnapshot
	subs []chan *PlanSnapshot
}

// NewPlanFeed starts a feed at the given initial snapshot.
func NewPlanFeed(initial *PlanSnapshot) (*PlanFeed, error) {
	if initial == nil || initial.Plan == nil {
		return nil, errors.New("policy: plan feed needs an initial snapshot with a plan")
	}
	if initial.Version == 0 {
		return nil, errors.New("policy: snapshot version 0 is reserved for unversioned plans")
	}
	return &PlanFeed{cur: initial}, nil
}

// Current implements PlanProvider.
func (f *PlanFeed) Current() *PlanSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// Subscribe implements PlanProvider. The returned channel has capacity 1;
// Publish drains a stale pending snapshot before delivering the new one.
func (f *PlanFeed) Subscribe() <-chan *PlanSnapshot {
	ch := make(chan *PlanSnapshot, 1)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch
}

// Publish installs snap as the current snapshot. It rejects nil plans and
// non-increasing versions — the monotonicity every downstream layer (wire
// stamping, server-side validation, replan histories) relies on.
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
	for _, ch := range f.subs {
		// Latest-wins: clear a stale undelivered snapshot, then deliver.
		select {
		case <-ch:
		default:
		}
		ch <- snap
	}
	return nil
}

// Fingerprint hashes the planning-relevant environment fields into a stable
// 64-bit identity. Persisted plans carry it so a loaded plan can be checked
// against the environment it is about to be used in; two Envs with equal
// fingerprints were (up to float bit patterns) the same planning inputs.
func (e Env) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(math.Float64bits(e.Bandwidth))
	put(uint64(e.ComputeCores))
	put(uint64(e.StorageCores))
	put(math.Float64bits(e.StorageSlowdown))
	put(math.Float64bits(e.GPU.Throughput))
	put(uint64(e.GPUs()))
	put(uint64(e.ShardCount()))
	return h.Sum64()
}
