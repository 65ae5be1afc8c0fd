package cache

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// TenantFetcher is one tenant's view of the fleet's shared artifact cache:
// fetches are keyed by (dataset, sample, cut) — not by tenant — so artifacts
// another tenant of the same share group already pulled are served from
// local memory at zero wire bytes, with hits and bytes accounted to this
// tenant in the shared cache's per-tenant counters.
//
// Correctness contract: every tenant of a share group must dial the storage
// tier with the group's dataset share key as job ID, so offloaded prefixes
// derive augmentation randomness from the shared seed and the cached bytes
// are bit-identical no matter which tenant fetched first. Hits decode a
// fresh artifact from the immutable cached encoding, so tenants never alias
// (and can never corrupt) each other's buffers.
type TenantFetcher struct {
	inner storage.Fetcher
	// router is inner's per-shard issue path, nil when the transport
	// underneath has no shard structure.
	router  storage.ShardRouter
	shared  *SharedArtifactCache
	tenant  string
	dataset uint64
}

// NewTenantFetcher wraps inner for one tenant of a share group. dataset is
// the group's share key (the job ID the inner client dialed with).
func NewTenantFetcher(inner storage.Fetcher, shared *SharedArtifactCache, tenant string, dataset uint64) (*TenantFetcher, error) {
	if inner == nil {
		return nil, errors.New("cache: tenant fetcher needs a client")
	}
	if shared == nil {
		return nil, errors.New("cache: tenant fetcher needs a shared cache")
	}
	if tenant == "" {
		return nil, errors.New("cache: tenant fetcher needs a tenant name")
	}
	router, _ := inner.(storage.ShardRouter)
	return &TenantFetcher{inner: inner, router: router, shared: shared, tenant: tenant, dataset: dataset}, nil
}

// key builds the fleet-wide artifact key for one fetch. Raw (cut-0)
// artifacts carry no per-epoch randomness and share across epochs. The
// split is a packed directive (see storage.PackDirective): the fidelity
// half must land in its own key dimension — a bare uint8 cast of the packed
// int would collapse a reduced-fidelity fetch onto the full-fidelity key
// and serve truncated bytes to full-fidelity readers.
func (t *TenantFetcher) key(sample uint32, split int, epoch uint64) ArtifactKey {
	cut, fid := storage.UnpackDirective(split)
	k := ArtifactKey{Dataset: t.dataset, Sample: sample, Cut: uint8(cut), Fidelity: uint8(fid)}
	if cut > 0 {
		k.Epoch = epoch
	}
	return k
}

// retain encodes a fetched artifact into a plain owned buffer for the shared
// cache. The source artifact is only read, never retained or released. The
// encoding goes through pooled scratch first: EncodeBound is the most an
// image can encode to, over twice what a photo does, and the cache charges
// len, not cap.
func (t *TenantFetcher) retain(key ArtifactKey, res storage.FetchResult) {
	scratch := bufpool.GetBytes(res.Artifact.EncodeBound())
	defer bufpool.PutBytes(scratch)
	enc, err := res.Artifact.AppendEncode(scratch[:0])
	if err != nil {
		return // unencodable artifact kinds are simply not cached
	}
	owned := make([]byte, len(enc))
	copy(owned, enc)
	t.shared.Put(t.tenant, key, owned)
}

// Fetch implements storage.Fetcher.
func (t *TenantFetcher) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return storage.FetchOne(ctx, t, sample, split, epoch)
}

// FetchBatch serves the samples any tenant of the share group already
// fetched from the shared cache at zero wire bytes, forwards only the misses,
// and retains what they bring back (see through).
func (t *TenantFetcher) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	return t.fetch(samples, splits, epoch, func(samples []uint32, splits []int) ([]storage.FetchResult, error) {
		return t.inner.FetchBatch(ctx, samples, splits, epoch)
	})
}

// fetch is through over the shared cache, whichever way the misses go down:
// a hit decodes the cached encoding into a fresh, caller-owned artifact, and
// only successful fetches populate the cache.
func (t *TenantFetcher) fetch(samples []uint32, splits []int, epoch uint64,
	forward func(samples []uint32, splits []int) ([]storage.FetchResult, error)) ([]storage.FetchResult, error) {
	return through(samples, splits,
		func(sample uint32, split int) (storage.FetchResult, bool, error) {
			data, ok := t.shared.Get(t.tenant, t.key(sample, split, epoch))
			if !ok {
				return storage.FetchResult{}, false, nil
			}
			art, err := pipeline.DecodeArtifact(data)
			if err != nil {
				// A corrupt cache entry would be a bug, not an I/O fault; surface it.
				return storage.FetchResult{}, false, fmt.Errorf("cache: shared entry for sample %d: %w", sample, err)
			}
			cut, fid := storage.UnpackDirective(split)
			return storage.FetchResult{Sample: sample, Artifact: art, Split: cut, Fidelity: fid}, true, nil
		},
		forward,
		func(sample uint32, split int, res storage.FetchResult) {
			if res.Err == nil {
				t.retain(t.key(sample, split, epoch), res)
			}
		})
}

// NumSamples reports the dataset size from the wrapped client.
func (t *TenantFetcher) NumSamples() int { return t.inner.NumSamples() }

// ShardInfo implements storage.ShardRouter by forwarding to the wrapped
// client; ok=false when the transport underneath has no shard structure, in
// which case lookahead falls back to single-link scheduling (through the
// cache as usual).
func (t *TenantFetcher) ShardInfo() (int, func(sample uint32) int, bool) {
	if t.router != nil {
		return t.router.ShardInfo()
	}
	return 1, nil, false
}

// FetchShard implements storage.ShardRouter with the same deepest-first
// preference as FetchBatch: shared-cache hits are served from local memory
// at zero wire bytes, and only the misses go to the shard's link. This is
// what makes the prefetcher's per-shard issue queues cache-aware — a stream
// entry another tenant already pulled never occupies the link at all. When
// the wrapped client has no FetchShard, misses forward through FetchBatch
// (the single-shard fallback, where routing is a no-op).
func (t *TenantFetcher) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	if t.router == nil {
		return t.FetchBatch(ctx, samples, splits, epoch)
	}
	return t.fetch(samples, splits, epoch, func(samples []uint32, splits []int) ([]storage.FetchResult, error) {
		return t.router.FetchShard(ctx, shard, samples, splits, epoch)
	})
}

// Stats returns this tenant's slice of the shared cache accounting.
func (t *TenantFetcher) Stats() TenantCacheStats { return t.shared.TenantStats(t.tenant) }

// Shared exposes the underlying fleet cache (monitor wiring).
func (t *TenantFetcher) Shared() *SharedArtifactCache { return t.shared }

// Close closes the wrapped client.
func (t *TenantFetcher) Close() error { return t.inner.Close() }
