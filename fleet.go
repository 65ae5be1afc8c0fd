package sophon

import (
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/storage"
)

// This file exposes the fleet control plane: multi-tenant SOPHON planning
// under shared per-shard core and bandwidth budgets, the cross-job artifact
// cache, and the deterministic fleet replay.

// FleetTenant is one live training job requesting admission to the fleet.
type FleetTenant = sched.Tenant

// FleetGrant is a tenant's resource assignment at one fleet generation.
type FleetGrant = sched.Grant

// FleetCoordinatorConfig configures the fleet coordinator's shared budgets.
type FleetCoordinatorConfig = sched.FleetConfig

// FleetCoordinator admits tenants against shared budgets and republishes
// every tenant's plan whenever the fleet mix changes.
type FleetCoordinator = sched.Coordinator

// FleetEvent records one fleet transition (admit, depart, bandwidth drift).
type FleetEvent = sched.FleetEvent

// FleetStatus is the coordinator's observability snapshot.
type FleetStatus = sched.FleetStatus

// NewFleetCoordinator builds a fleet coordinator over shared per-shard
// storage-core and bandwidth budgets.
func NewFleetCoordinator(cfg FleetCoordinatorConfig) (*FleetCoordinator, error) {
	return sched.NewCoordinator(cfg)
}

// SharedArtifactCache is the fleet's cross-job artifact cache, keyed by
// (dataset, sample, pipeline cut) rather than by job.
type SharedArtifactCache = cache.SharedArtifactCache

// SharedCacheSnapshot is the shared cache's accounting snapshot.
type SharedCacheSnapshot = cache.SharedSnapshot

// TenantCacheStats is one tenant's slice of the shared-cache accounting.
type TenantCacheStats = cache.TenantCacheStats

// NewSharedArtifactCache builds a cross-job artifact cache with the given
// byte capacity.
func NewSharedArtifactCache(capacityBytes int64) (*SharedArtifactCache, error) {
	return cache.NewShared(capacityBytes)
}

// TenantFetcher is one tenant's view of the shared artifact cache stacked
// over any storage transport.
type TenantFetcher = cache.TenantFetcher

// NewTenantFetcher wraps a storage client for one tenant of a share group.
// Every tenant of the group must have dialed with the group's dataset share
// key as job ID so cached artifacts are bit-identical across tenants.
func NewTenantFetcher(inner storage.Fetcher, shared *SharedArtifactCache, tenant string, dataset uint64) (*TenantFetcher, error) {
	return cache.NewTenantFetcher(inner, shared, tenant, dataset)
}

// DialStorageShared opens a storage session for one tenant of a share group:
// the connection authenticates as the group's dataset key so offloaded
// augmentation seeds — and therefore cached artifacts — match across the
// group's tenants.
func DialStorageShared(addr string, dataset uint64, opts StorageClientOptions) (*storage.Client, error) {
	opts.JobID = dataset
	return storage.DialWithOptions(addr, opts)
}

// FleetSimJob is one tenant of a fleet replay.
type FleetSimJob = engine.FleetJob

// FleetSimConfig describes a deterministic multi-job replay over one shared
// storage tier.
type FleetSimConfig = engine.FleetConfig

// FleetSimResult summarizes a fleet replay, including the determinism
// digest.
type FleetSimResult = engine.FleetResult

// SimulateFleet replays one epoch of every job over the shared tier with a
// deterministic interleave; equal seeds produce equal digests.
func SimulateFleet(cfg FleetSimConfig) (FleetSimResult, error) {
	return engine.RunFleet(cfg)
}
