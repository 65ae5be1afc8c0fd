package storage

import (
	"context"
	"fmt"
)

// Fetcher is the compute node's view of the storage service, and the one
// interface every layer of the fetch stack speaks: *Client, the retry layer
// (*ReconnectingClient), the shard fan-out (*cluster.ShardedClient) and the
// caches (*cache.FetchingCache, *cache.TenantFetcher) all implement it and
// wrap it, so resilience, sharding and caching compose in any order.
// Implementations must be safe for concurrent use: the trainer pipelines
// many in-flight requests over one shared session.
type Fetcher interface {
	// FetchBatch is the round trip: up to wire.MaxBatchItems samples, each
	// with its packed directive (see PackDirective), results in request
	// order. Per-item failures do NOT fail the call: each FetchResult
	// carries its own Status/Err (wrapping ErrSampleMissing, ErrBadSplitReq
	// or ErrFetchFailed) and its Artifact is valid only when Err is nil.
	// The returned error is non-nil only for validation or transport-level
	// failures. Cancelling ctx unblocks the caller without disturbing other
	// in-flight requests.
	FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]FetchResult, error)
	// Fetch is FetchOne: a batch of one.
	Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (FetchResult, error)
	NumSamples() int
	Close() error
}

// FetchOne is every layer's Fetch: f.FetchBatch of one sample. The sample's
// own failure comes back as both the result's Err and the error; a failed
// round trip as a result carrying only the sample and the error.
func FetchOne(ctx context.Context, f Fetcher, sample uint32, split int, epoch uint64) (FetchResult, error) {
	res, err := f.FetchBatch(ctx, []uint32{sample}, []int{split}, epoch)
	if err == nil && len(res) != 1 {
		err = fmt.Errorf("storage: batch of 1 returned %d items", len(res))
	}
	if err != nil {
		return FetchResult{Sample: sample, Err: err}, err
	}
	return res[0], res[0].Err
}

type planVersionKey struct{}

// WithPlanVersion returns a context whose fetches are stamped with the
// control plane's plan version v: Client.FetchBatch reads it when it builds
// the request frame, so every wrapper that passes its ctx down forwards the
// stamp, a redialed session needs nothing re-applied, and a request in
// flight keeps the version it was issued under. A context without a stamp
// fetches unversioned (0).
func WithPlanVersion(ctx context.Context, v uint32) context.Context {
	return context.WithValue(ctx, planVersionKey{}, v)
}

func planVersion(ctx context.Context) uint32 {
	v, _ := ctx.Value(planVersionKey{}).(uint32)
	return v
}
