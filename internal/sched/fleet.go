package sched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/simclock"
)

// The fleet coordinator is the multi-tenant control plane: it admits live
// training jobs against SHARED per-shard storage-CPU and link-bandwidth
// budgets, grants each tenant a weighted fair share, re-runs SOPHON's
// decision engine per tenant under its grant, and publishes every tenant's
// plan through its own PlanFeed. Any change to the fleet mix — a job
// arriving, a job departing, the tier's measured bandwidth drifting — bumps
// the fleet generation and republishes every tenant's snapshot, so tenants
// replan exactly the way a single job replans under the adaptive controller.
//
// Budget semantics follow policy.Env: with K shards, Cores and Bandwidth
// are PER-SHARD quantities. Bandwidth is divided weighted-fair among
// tenants (every tenant streams concurrently, so the link is shared
// continuously); cores are granted whole via weighted marginal-gain
// water-filling (a core is indivisible, but the grant applies on each
// shard). A tenant granted zero cores still receives a valid transfer-only
// plan — admission never drops a tenant from the fleet.

// Tenant is one live training job requesting admission.
type Tenant struct {
	// Name identifies the tenant fleet-wide; must be unique and non-empty.
	Name string
	// Weight is the fair-share weight (0 means 1). A weight-2 tenant
	// receives twice the bandwidth share of a weight-1 tenant and its
	// marginal core gains count double in the water-filling loop.
	Weight float64
	// Trace is the tenant's stage-2 profile.
	Trace *dataset.Trace
	// Env carries the tenant's OWN resources (compute cores, GPU model,
	// storage slowdown). Bandwidth, StorageCores, and Shards are overridden
	// by the coordinator's grants.
	Env policy.Env
	// Dataset is the artifact share key (conventionally the dataset
	// fingerprint): tenants with equal keys train on the same dataset and
	// share offloaded artifacts through the cross-job cache. 0 = private.
	Dataset uint64
}

// weight returns the effective fair-share weight.
func (t Tenant) weight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// Grant is what the coordinator assigned one tenant at one generation.
type Grant struct {
	// Cores is the per-shard storage-CPU grant.
	Cores int `json:"cores"`
	// Bandwidth is the per-shard link share in bytes/second.
	Bandwidth float64 `json:"bandwidth"`
	// Plan is the SOPHON plan computed under the grant (never nil).
	Plan *policy.Plan `json:"-"`
	// Predicted is the modeled epoch time under the grant.
	Predicted time.Duration `json:"predicted"`
}

// FleetEvent records one control-plane transition.
type FleetEvent struct {
	// Generation is the fleet plan generation the event produced; it is the
	// plan version stamped on every tenant snapshot published for it.
	Generation uint64 `json:"generation"`
	// Reason names the trigger: "admit:<name>", "depart:<name>", or
	// "bandwidth-drift".
	Reason string `json:"reason"`
	// Tenants is the fleet size after the transition.
	Tenants int `json:"tenants"`
	// Bandwidth is the per-shard link capacity the fleet planned against.
	Bandwidth float64 `json:"bandwidth"`
	// At is the coordinator clock's time of the transition.
	At time.Time `json:"at"`
}

// String renders the event for logs.
func (e FleetEvent) String() string {
	return fmt.Sprintf("gen%d %s (%d tenants, %.1f MB/s)", e.Generation, e.Reason, e.Tenants, e.Bandwidth/1e6)
}

// TenantStatus is one tenant's row of the fleet's observability surface.
type TenantStatus struct {
	Name             string  `json:"name"`
	Weight           float64 `json:"weight"`
	Dataset          uint64  `json:"dataset,omitempty"`
	Cores            int     `json:"cores"`
	BandwidthMBps    float64 `json:"bandwidth_mbps"`
	PlanVersion      uint64  `json:"plan_version"`
	Samples          int     `json:"samples"`
	Offloaded        int     `json:"offloaded"`
	PredictedSeconds float64 `json:"predicted_seconds"`
}

// FleetStatus is a snapshot of the fleet: roster, grants and event history.
type FleetStatus struct {
	Generation uint64         `json:"generation"`
	Shards     int            `json:"shards"`
	Cores      int            `json:"cores"`
	CoresUsed  int            `json:"cores_used"`
	Bandwidth  float64        `json:"bandwidth"`
	Tenants    []TenantStatus `json:"tenants"`
	History    []FleetEvent   `json:"history"`
}

const (
	// fleetDrift is the relative bandwidth change that triggers a fleet
	// replan in ObserveBandwidth.
	fleetDrift = 0.2
	// maxFleetHistory bounds the event history.
	maxFleetHistory = 256
)

// FleetConfig configures a coordinator.
type FleetConfig struct {
	// Cores is the shared per-shard storage-CPU budget (≥ 0).
	Cores int
	// Bandwidth is the shared per-shard link capacity in bytes/second.
	Bandwidth float64
	// Shards is the storage tier's server count (0 → 1).
	Shards int
	// Clock timestamps fleet events (nil → wall clock).
	Clock simclock.Clock
}

// tenantState is one admitted tenant plus its live plan feed.
type tenantState struct {
	Tenant
	feed  *policy.PlanFeed
	grant Grant
}

// Coordinator is the fleet control plane. All methods are safe for
// concurrent use.
type Coordinator struct {
	cores  int
	shards int
	engine *policy.Sophon // the paper-faithful SOPHON engine
	clock  simclock.Clock

	mu         sync.Mutex
	bandwidth  float64 // current per-shard capacity estimate
	generation uint64
	tenants    map[string]*tenantState
	order      []string // admission order, the deterministic planning order
	history    []FleetEvent
}

// NewCoordinator builds an empty fleet.
func NewCoordinator(cfg FleetConfig) (*Coordinator, error) {
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("sched: negative core budget %d", cfg.Cores)
	}
	if cfg.Bandwidth <= 0 {
		return nil, errors.New("sched: fleet bandwidth must be positive")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("sched: negative shard count %d", cfg.Shards)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real()
	}
	return &Coordinator{
		cores:     cfg.Cores,
		shards:    shards,
		engine:    policy.NewSophon(),
		clock:     clock,
		bandwidth: cfg.Bandwidth,
		tenants:   make(map[string]*tenantState),
	}, nil
}

// Admit joins a tenant to the fleet, replans every tenant under the new
// mix, and returns the tenant's live plan provider. The returned provider's
// first snapshot is the admission-generation plan; later fleet transitions
// publish higher generations on it.
func (c *Coordinator) Admit(t Tenant) (policy.PlanProvider, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Name == "" {
		return nil, errors.New("sched: tenant has no name")
	}
	if _, ok := c.tenants[t.Name]; ok {
		return nil, fmt.Errorf("sched: tenant %q already admitted", t.Name)
	}
	if t.Trace == nil || t.Trace.N() == 0 {
		return nil, fmt.Errorf("sched: tenant %q has an empty trace", t.Name)
	}
	env := t.Env
	env.StorageCores = 0
	env.Bandwidth = c.bandwidth
	env.Shards = c.shards
	if err := env.Validate(); err != nil {
		return nil, fmt.Errorf("sched: tenant %q: %w", t.Name, err)
	}
	st := &tenantState{Tenant: t}
	c.tenants[t.Name] = st
	c.order = append(c.order, t.Name)
	if err := c.replanLocked("admit:" + t.Name); err != nil {
		// Roll the failed admission back so the fleet stays consistent.
		delete(c.tenants, t.Name)
		c.order = c.order[:len(c.order)-1]
		return nil, err
	}
	return st.feed, nil
}

// Depart removes a tenant and replans the remaining fleet, which typically
// widens everyone else's grants. The departed tenant's feed stops updating.
func (c *Coordinator) Depart(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tenants[name]; !ok {
		return fmt.Errorf("sched: tenant %q not admitted", name)
	}
	delete(c.tenants, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return c.replanLocked("depart:" + name)
}

// ObserveBandwidth folds a measured per-shard link capacity into the
// coordinator. If it deviates from the planning estimate by more than the
// drift threshold, the fleet replans against the measurement; otherwise the
// observation is absorbed without a replan. Returns whether a replan ran.
func (c *Coordinator) ObserveBandwidth(measured float64) (bool, error) {
	if measured <= 0 {
		return false, fmt.Errorf("sched: measured bandwidth %.1f", measured)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if math.Abs(measured-c.bandwidth)/c.bandwidth < fleetDrift {
		return false, nil
	}
	c.bandwidth = measured
	if err := c.replanLocked("bandwidth-drift"); err != nil {
		return false, err
	}
	return true, nil
}

// Provider returns a tenant's live plan feed.
func (c *Coordinator) Provider(name string) (policy.PlanProvider, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.tenants[name]
	if !ok {
		return nil, false
	}
	return st.feed, true
}

// Grants returns every tenant's current grant.
func (c *Coordinator) Grants() map[string]Grant {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Grant, len(c.tenants))
	for name, st := range c.tenants {
		out[name] = st.grant
	}
	return out
}

// Generation returns the current fleet plan generation.
func (c *Coordinator) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// History returns a copy of the fleet event history, oldest first.
func (c *Coordinator) History() []FleetEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FleetEvent, len(c.history))
	copy(out, c.history)
	return out
}

// Status snapshots the fleet for the monitor, tenants in admission order.
func (c *Coordinator) Status() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := FleetStatus{
		Generation: c.generation,
		Shards:     c.shards,
		Cores:      c.cores,
		Bandwidth:  c.bandwidth,
		Tenants:    make([]TenantStatus, 0, len(c.order)),
		History:    append([]FleetEvent(nil), c.history...),
	}
	for _, name := range c.order {
		st := c.tenants[name]
		row := TenantStatus{
			Name:             name,
			Weight:           st.weight(),
			Dataset:          st.Dataset,
			Cores:            st.grant.Cores,
			BandwidthMBps:    st.grant.Bandwidth * 8 / 1e6,
			Samples:          st.Trace.N(),
			PredictedSeconds: st.grant.Predicted.Seconds(),
		}
		if st.grant.Plan != nil {
			row.Offloaded = st.grant.Plan.OffloadedCount()
		}
		if st.feed != nil {
			row.PlanVersion = uint64(st.feed.Current().Version)
		}
		out.CoresUsed += st.grant.Cores
		out.Tenants = append(out.Tenants, row)
	}
	return out
}

// replanLocked recomputes every tenant's grant and plan at a new fleet
// generation and publishes the snapshots. Called with c.mu held.
func (c *Coordinator) replanLocked(reason string) error {
	c.generation++
	gen := c.generation

	if len(c.order) > 0 {
		var totalWeight float64
		for _, name := range c.order {
			totalWeight += c.tenants[name].weight()
		}

		// Weighted fair bandwidth shares, then weighted water-filling for
		// cores, each tenant evaluated under ITS OWN bandwidth grant.
		jobs := make([]Job, 0, len(c.order))
		weights := make([]float64, 0, len(c.order))
		for _, name := range c.order {
			st := c.tenants[name]
			env := st.Env
			env.Bandwidth = c.bandwidth * st.weight() / totalWeight
			env.Shards = c.shards
			jobs = append(jobs, Job{Name: name, Trace: st.Trace, Env: env})
			weights = append(weights, st.weight())
		}
		granted, current, err := waterFill(jobs, weights, c.cores, newEvaluator(c.engine))
		if err != nil {
			c.generation--
			return fmt.Errorf("sched: fleet replan (%s): %w", reason, err)
		}

		for _, j := range jobs {
			st := c.tenants[j.Name]
			o := current[j.Name]
			st.grant = Grant{
				Cores:     granted[j.Name],
				Bandwidth: j.Env.Bandwidth,
				Plan:      o.plan,
				Predicted: o.time,
			}
			env := j.Env
			env.StorageCores = granted[j.Name]
			snap := &policy.PlanSnapshot{
				Version: policy.PlanVersion(gen),
				Plan:    o.plan,
				Env:     env,
				Reason:  reason,
			}
			// Neither call can fail here (the plan is non-nil and gen strictly
			// increases), but a surfaced error must not roll the generation
			// back: earlier tenants in this loop already published it.
			if st.feed == nil {
				feed, err := policy.NewPlanFeed(snap)
				if err != nil {
					return err
				}
				st.feed = feed
			} else if err := st.feed.Publish(snap); err != nil {
				return err
			}
		}
	}

	c.history = append(c.history, FleetEvent{
		Generation: gen,
		Reason:     reason,
		Tenants:    len(c.tenants),
		Bandwidth:  c.bandwidth,
		At:         c.clock.Now(),
	})
	if len(c.history) > maxFleetHistory {
		c.history = c.history[len(c.history)-maxFleetHistory:]
	}
	return nil
}

// ShareGroups returns the tenants of each non-private dataset share key, in
// admission order — the groups whose artifacts the cross-job cache
// deduplicates.
func (c *Coordinator) ShareGroups() map[uint64][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64][]string)
	for _, name := range c.order {
		st := c.tenants[name]
		if st.Dataset != 0 {
			out[st.Dataset] = append(out[st.Dataset], name)
		}
	}
	return out
}
