// Package cache implements the compute-local caching alternative the paper
// contrasts against (its §1: "existing approaches mainly focus on
// selectively caching data in local storage or memory ... limited by the
// capacities of local storage"): the admit-until-full, never-evict cache DL
// systems (CoorDL's MinIO cache, Quiver) use for repeated full scans, a
// client wrapper that puts it in front of the live trainer, and a model-tier
// adapter that folds its steady-state behaviour into a profiled trace. That
// cache holds raw (stage-0) artifacts only: augmented artifacts differ every
// epoch, which is exactly why the paper keeps preprocessing online. The
// fleet's cross-job artifact cache (SharedArtifactCache, read through one
// TenantFetcher per tenant) is the exception: tenants of a share group
// derive the same augmentations, so it keys artifacts by pipeline cut.
package cache

import (
	"errors"
	"fmt"
	"sync"
)

// errBadCapacity reports a non-positive capacity.
var errBadCapacity = errors.New("cache: capacity must be positive")

// NoEvict is a byte-capacity store over sample IDs that admits objects until
// full and never evicts — the policy DL caches (CoorDL's MinIO cache,
// Quiver's substitutable cache) use, because under repeated full-dataset
// scans any churn-based policy (LRU, random replacement) evicts every object
// right before its next use and converges to ~zero hits, while a frozen
// resident set yields a stable capacity/datasetSize hit rate.
type NoEvict struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	data     map[uint32][]byte
}

// NewNoEvict builds an admit-until-full, never-evict cache.
func NewNoEvict(capacity int64) (*NoEvict, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", errBadCapacity, capacity)
	}
	return &NoEvict{
		capacity: capacity,
		data:     make(map[uint32][]byte),
	}, nil
}

// get returns the cached bytes and whether they were present.
func (c *NoEvict) get(id uint32) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.data[id]
	return d, ok
}

// put inserts bytes if they fit. Objects larger than the capacity are not
// cached.
func (c *NoEvict) put(id uint32, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.data[id]; ok {
		delta := int64(len(data)) - int64(len(old))
		if c.bytes+delta > c.capacity {
			return // the grown replacement no longer fits; keep the old copy
		}
		c.bytes += delta
		c.data[id] = data
		return
	}
	if c.bytes+int64(len(data)) > c.capacity {
		return // full: admission denied, nothing is ever evicted
	}
	c.data[id] = data
	c.bytes += int64(len(data))
}
