package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/simclock"
)

// The fleet coordinator is the multi-tenant control plane: it admits live
// training jobs against SHARED per-shard storage-CPU and link-bandwidth
// budgets, grants each tenant a weighted fair share, and re-runs SOPHON's
// decision engine per tenant under its grant. Every admission changes the
// fleet mix: it bumps the fleet generation and replans every tenant, whose
// plan is then read from its Grant.
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
	// Generation is the fleet plan generation the event produced.
	Generation uint64 `json:"generation"`
	// Reason names the trigger, "admit:<name>".
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

// maxFleetHistory bounds the event history.
const maxFleetHistory = 256

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

// tenantState is one admitted tenant plus its current grant.
type tenantState struct {
	Tenant
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

// Admit joins a tenant to the fleet and replans every tenant under the new
// mix at the next generation, before it returns. Each tenant's plan is read
// from Grants, and the generation it belongs to from Generation.
func (c *Coordinator) Admit(t Tenant) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Name == "" {
		return errors.New("sched: tenant has no name")
	}
	if _, ok := c.tenants[t.Name]; ok {
		return fmt.Errorf("sched: tenant %q already admitted", t.Name)
	}
	if t.Trace == nil || t.Trace.N() == 0 {
		return fmt.Errorf("sched: tenant %q has an empty trace", t.Name)
	}
	env := t.Env
	env.StorageCores = 0
	env.Bandwidth = c.bandwidth
	env.Shards = c.shards
	if err := env.Validate(); err != nil {
		return fmt.Errorf("sched: tenant %q: %w", t.Name, err)
	}
	c.tenants[t.Name] = &tenantState{Tenant: t}
	c.order = append(c.order, t.Name)
	if err := c.replanLocked("admit:" + t.Name); err != nil {
		// Roll the failed admission back so the fleet stays consistent.
		delete(c.tenants, t.Name)
		c.order = c.order[:len(c.order)-1]
		return err
	}
	return nil
}

// Grants returns every tenant's current grant, keyed by tenant name.
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

// replanLocked recomputes every tenant's grant and plan at a new fleet
// generation. Called with c.mu held and at least one tenant admitted.
func (c *Coordinator) replanLocked(reason string) error {
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
		return fmt.Errorf("sched: fleet replan (%s): %w", reason, err)
	}
	for _, j := range jobs {
		o := current[j.Name]
		c.tenants[j.Name].grant = Grant{
			Cores:     granted[j.Name],
			Bandwidth: j.Env.Bandwidth,
			Plan:      o.plan,
			Predicted: o.time,
		}
	}

	c.generation++
	c.history = append(c.history, FleetEvent{
		Generation: c.generation,
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
