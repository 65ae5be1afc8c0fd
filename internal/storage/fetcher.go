package storage

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
)

// Fetcher is the compute node's view of the storage service, and the one
// interface every layer of the fetch stack speaks: *Client, the retry layer
// (*ReconnectingClient), the shard fan-out (*cluster.ShardedClient) and the
// caches (*cache.FetchingCache, *cache.TenantFetcher) all implement it and
// wrap it, so resilience, sharding and caching compose in any order.
// Implementations must be safe for concurrent use: the trainer pipelines
// many in-flight requests over one shared session. FetchBatch is the one
// round trip; FetchOne is the single-sample path over it.
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
	// Fetch is FetchOne; every implementation forwards to it and nothing
	// in this module calls it. It stays only because benchmarks/ compiles
	// against it (its traced client wraps it; ROADMAP 1A(vi)).
	Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (FetchResult, error)
	// Tier states the facts of the tier behind the session, as its
	// handshake carried them.
	Tier() Tier
	Close() error
}

// Tier is what a storage tier states about itself at the handshake: the
// dataset size, the pipeline its servers run, each shard's preprocessing
// cores and CPU slowdown, and how many shards it has (1 for one server).
// Shard is which of them the session's server is; a fan-out client states
// shard 0.
type Tier struct {
	Samples  int
	Pipeline pipeline.Fingerprint
	Cores    int
	Slowdown float64
	Shard    int
	Shards   int
}

// FetchOne is the single-sample path: f.FetchBatch of one sample. The sample's
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
