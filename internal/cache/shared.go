package cache

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
)

// This file implements the cross-job artifact cache of the fleet control
// plane. Where the per-job cache keys by sample ID alone, the shared
// cache keys by (dataset, sample, pipeline-cut): tenants training on
// overlapping datasets fetch each offloaded artifact once, and every tenant
// after the first is served from compute-local memory — the CoorDL insight
// ("Analyzing and Mitigating Data Stalls in DNN Training") that coordinating
// the cache across jobs eliminates redundant fetches.
//
// Cross-tenant identity of augmented artifacts requires that every tenant in
// a share group derive augmentation randomness from the same seed: tenants
// dial the storage tier with the group's dataset share key as their job ID
// (coordinated prep), so the server's prefix execution for a given
// (sample, cut, epoch) is bit-identical regardless of which tenant asked.

// artifactKey identifies one cacheable artifact fleet-wide. Keys carry no
// tenant identity — that is the whole point.
type artifactKey struct {
	// Dataset is the share-group key (conventionally the dataset
	// fingerprint, used as the storage job ID by every tenant in the group).
	Dataset uint64
	// Sample is the sample ID within the dataset.
	Sample uint32
	// Cut is the pipeline cut (split): the number of ops executed on the
	// storage server. Cut 0 is the raw object.
	Cut uint8
	// Fidelity is the progressive dimension: the number of refinement scans
	// withheld from a cut-0 progressive container (0 = the full object).
	// Keys at different fidelities name different byte strings, so a
	// reduced-fidelity body never answers a full-fidelity read.
	Fidelity uint8
	// Epoch scopes augmented artifacts, which embed per-epoch randomness.
	// Raw (cut-0) artifacts are epoch-invariant and use Epoch 0.
	Epoch uint64
}

// String renders the key for logs.
func (k artifactKey) String() string {
	return fmt.Sprintf("ds=%x sample=%d cut=%d fid=%d epoch=%d", k.Dataset, k.Sample, k.Cut, k.Fidelity, k.Epoch)
}

// TenantCacheStats is one tenant's slice of the shared cache's accounting.
type TenantCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Inserts       int64 `json:"inserts"`
	BytesSaved    int64 `json:"bytes_saved"`    // payload bytes served from cache instead of the wire
	BytesInserted int64 `json:"bytes_inserted"` // payload bytes this tenant contributed
}

// SharedSnapshot is the monitor-facing view of the shared cache.
type SharedSnapshot struct {
	Items     int                         `json:"items"`
	Bytes     int64                       `json:"bytes"`
	Capacity  int64                       `json:"capacity"`
	Evictions int64                       `json:"evictions"`
	Hits      int64                       `json:"hits"`
	Misses    int64                       `json:"misses"`
	Tenants   map[string]TenantCacheStats `json:"tenants,omitempty"`
}

// HitRate returns the aggregate hit rate.
func (s SharedSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TenantNames returns the accounted tenants in sorted order.
func (s SharedSnapshot) TenantNames() []string {
	names := make([]string, 0, len(s.Tenants))
	for n := range s.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SharedArtifactCache is a byte-capacity LRU over encoded artifacts, shared
// by every tenant of a fleet and safe for concurrent use. Payloads are
// immutable once inserted: get returns the stored slice (callers must treat
// it as read-only — decoding copies anyway), and eviction merely drops the
// cache's reference, so artifacts decoded by one tenant are never corrupted
// by another tenant's churn.
type SharedArtifactCache struct {
	mu        sync.Mutex
	capacity  int64
	bytes     int64
	ll        *list.List // front = most recently used
	items     map[artifactKey]*list.Element
	tenants   map[string]*TenantCacheStats
	evictions int64
	hits      int64
	misses    int64
}

type sharedEntry struct {
	key  artifactKey
	data []byte
}

// NewShared builds a shared artifact cache with the given byte capacity.
func NewShared(capacity int64) (*SharedArtifactCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", errBadCapacity, capacity)
	}
	return &SharedArtifactCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[artifactKey]*list.Element),
		tenants:  make(map[string]*TenantCacheStats),
	}, nil
}

func (c *SharedArtifactCache) tenantLocked(tenant string) *TenantCacheStats {
	s, ok := c.tenants[tenant]
	if !ok {
		s = &TenantCacheStats{}
		c.tenants[tenant] = s
	}
	return s
}

// get returns the encoded artifact for key, charging the lookup to tenant.
// The returned slice is read-only and remains valid after eviction.
func (c *SharedArtifactCache) get(tenant string, key artifactKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.tenantLocked(tenant)
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*sharedEntry)
		ts.Hits++
		ts.BytesSaved += int64(len(e.data))
		c.hits++
		return e.data, true
	}
	ts.Misses++
	c.misses++
	return nil, false
}

// put inserts an encoded artifact under key, charging the insert to tenant.
// The cache takes ownership of data — callers must not mutate it afterwards.
// Objects larger than the capacity are not cached; a key already present is
// kept as-is (first writer wins, so concurrent same-key misses are benign).
func (c *SharedArtifactCache) put(tenant string, key artifactKey, data []byte) {
	if int64(len(data)) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Identical content by construction (keys name immutable artifacts);
		// just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&sharedEntry{key: key, data: data})
	c.bytes += int64(len(data))
	ts := c.tenantLocked(tenant)
	ts.Inserts++
	ts.BytesInserted += int64(len(data))
	for c.bytes > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*sharedEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.data))
		c.evictions++
	}
}

// Snapshot returns the full accounting picture for the monitor.
func (c *SharedArtifactCache) Snapshot() SharedSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := SharedSnapshot{
		Items:     len(c.items),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
		Evictions: c.evictions,
		Hits:      c.hits,
		Misses:    c.misses,
		Tenants:   make(map[string]TenantCacheStats, len(c.tenants)),
	}
	for name, s := range c.tenants {
		out.Tenants[name] = *s
	}
	return out
}
