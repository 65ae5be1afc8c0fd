package sophon

import (
	"repro/internal/cache"
	"repro/internal/sched"
)

// This file exposes the fleet control plane: multi-tenant SOPHON planning
// under shared per-shard core and bandwidth budgets, and the cross-job
// artifact cache its tenants share.

// FleetTenant is one live training job requesting admission to the fleet.
type FleetTenant = sched.Tenant

// FleetCoordinatorConfig configures the fleet coordinator's shared budgets.
type FleetCoordinatorConfig = sched.FleetConfig

// FleetCoordinator admits tenants against shared budgets and republishes
// every tenant's plan whenever the fleet mix changes.
type FleetCoordinator = sched.Coordinator

// NewFleetCoordinator builds a fleet coordinator over shared per-shard
// storage-core and bandwidth budgets.
func NewFleetCoordinator(cfg FleetCoordinatorConfig) (*FleetCoordinator, error) {
	return sched.NewCoordinator(cfg)
}

// SharedArtifactCache is the fleet's cross-job artifact cache, keyed by
// (dataset, sample, pipeline cut) rather than by job.
type SharedArtifactCache = cache.SharedArtifactCache

// NewSharedArtifactCache builds a cross-job artifact cache with the given
// byte capacity.
func NewSharedArtifactCache(capacityBytes int64) (*SharedArtifactCache, error) {
	return cache.NewShared(capacityBytes)
}
