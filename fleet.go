package sophon

import "repro/internal/cache"

// This file exposes the cross-job artifact cache that the tenants of one
// share group stack over their storage sessions.

// SharedArtifactCache is the fleet's cross-job artifact cache, keyed by
// (dataset, sample, pipeline cut) rather than by job.
type SharedArtifactCache = cache.SharedArtifactCache

// NewSharedArtifactCache builds a cross-job artifact cache with the given
// byte capacity.
func NewSharedArtifactCache(capacityBytes int64) (*SharedArtifactCache, error) {
	return cache.NewShared(capacityBytes)
}
