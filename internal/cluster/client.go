package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
	"repro/internal/wire"
)

// ShardClient is one shard's session as the fan-out client needs it. It is
// satisfied by *storage.Client and *storage.ReconnectingClient, so per-shard
// resilience composes underneath the fan-out.
type ShardClient interface {
	storage.Fetcher
	Stats(ctx context.Context) (wire.StatsResp, error)
}

// ErrShardDown marks a per-item failure caused by an unreachable shard. In
// DegradedMode it reaches the trainer through FetchResult.Err so only the
// dead shard's samples fail; the errors.Is chain lets callers distinguish a
// crashed shard from an application-level rejection.
var ErrShardDown = errors.New("cluster: shard down")

// ShardedClient implements the trainer's storage-client contract over N
// shard sessions. Fetches route by the shard map; batch fetches partition
// per shard, fan out concurrently (each shard's session pipelines its own
// sub-batch), and reassemble in input order. All methods are safe for
// concurrent use — index writes into result slices are disjoint per shard.
//
// DegradedMode controls what a down shard costs: off, a shard-level
// transport failure fails the whole call (an epoch aborts, today's
// single-server behaviour); on, it fails only that shard's items, each
// FetchResult carrying an ErrShardDown-wrapped error while every healthy
// shard's samples still flow.
type ShardedClient struct {
	m        *ShardMap
	shards   []ShardClient
	degraded bool
	n        int
}

// NewShardedClient wires shard sessions to a shard map. Every session must
// agree on the dataset size — disagreeing shards mean a misconfigured
// cluster, and silently fetching from it would corrupt placement.
func NewShardedClient(m *ShardMap, shards []ShardClient, degraded bool) (*ShardedClient, error) {
	if m == nil {
		return nil, errors.New("cluster: nil shard map")
	}
	if len(shards) != m.Shards() {
		return nil, fmt.Errorf("cluster: %d sessions for %d shards", len(shards), m.Shards())
	}
	n := shards[0].NumSamples()
	for s, c := range shards {
		if c == nil {
			return nil, fmt.Errorf("cluster: nil session for shard %d", s)
		}
		if c.NumSamples() != n {
			return nil, fmt.Errorf("cluster: shard %d reports %d samples, shard 0 reports %d",
				s, c.NumSamples(), n)
		}
	}
	return &ShardedClient{m: m, shards: shards, degraded: degraded, n: n}, nil
}

// NumSamples returns the dataset size every shard agreed on.
func (c *ShardedClient) NumSamples() int { return c.n }

// ShardMap returns the placement map the client routes by.
func (c *ShardedClient) ShardMap() *ShardMap { return c.m }

// Shard returns shard s's underlying session.
func (c *ShardedClient) Shard(s int) ShardClient { return c.shards[s] }

// downErr wraps a shard-level transport failure for one item.
func downErr(shard int, err error) error {
	return fmt.Errorf("%w: shard %d: %v", ErrShardDown, shard, err)
}

// Fetch implements storage.Fetcher. A shard transport failure reaches the
// caller wrapped in ErrShardDown in or out of DegradedMode, so batch and
// single paths classify failures identically.
func (c *ShardedClient) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return storage.FetchOne(ctx, c, sample, split, epoch)
}

// isItemError reports whether err is an application-level per-item
// rejection rather than a shard transport failure.
func isItemError(err error) bool {
	return errors.Is(err, storage.ErrSampleMissing) ||
		errors.Is(err, storage.ErrBadSplitReq) ||
		errors.Is(err, storage.ErrFetchFailed)
}

// FetchBatch partitions the batch by owning shard, issues one concurrent
// sub-batch per shard, and reassembles the per-item results in input order.
// Per-item semantics match storage.Client.FetchBatch: the returned error is
// non-nil only for validation failures or — outside DegradedMode — a shard
// transport failure.
func (c *ShardedClient) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	if err := validateBatch(samples, splits); err != nil {
		return nil, err
	}
	parts := c.m.Partition(samples)
	out := make([]storage.FetchResult, len(samples))
	errs := make([]error, c.m.Shards())
	var wg sync.WaitGroup
	for s, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			subSamples := make([]uint32, len(idxs))
			subSplits := make([]int, len(idxs))
			for j, i := range idxs {
				subSamples[j] = samples[i]
				subSplits[j] = splits[i]
			}
			res, err := c.shards[s].FetchBatch(ctx, subSamples, subSplits, epoch)
			if err != nil {
				err = downErr(s, err)
				errs[s] = err
				// Degraded: the shard's items fail individually; the
				// healthy shards' results stand.
				for j, i := range idxs {
					out[i] = storage.FetchResult{
						Sample: subSamples[j],
						Split:  subSplits[j],
						Status: wire.FetchFailed,
						Err:    err,
					}
				}
				return
			}
			for j, i := range idxs {
				out[i] = res[j]
			}
		}(s, idxs)
	}
	wg.Wait()
	// A cancelled call is the caller's doing, not a shard's: report it as
	// such before any sub-batch it broke is read as a dead shard.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !c.degraded {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// validateBatch is the shape check FetchBatch and FetchShard share.
func validateBatch(samples []uint32, splits []int) error {
	if len(samples) == 0 {
		return errors.New("cluster: empty batch")
	}
	if len(samples) != len(splits) {
		return fmt.Errorf("cluster: %d samples but %d splits", len(samples), len(splits))
	}
	if len(samples) > wire.MaxBatchItems {
		return fmt.Errorf("cluster: batch of %d exceeds %d", len(samples), wire.MaxBatchItems)
	}
	return nil
}

// ShardInfo implements storage.ShardRouter: it exposes the placement map so
// a lookahead scheduler can partition the epoch's access stream per shard
// with exactly the routing FetchBatch would use.
func (c *ShardedClient) ShardInfo() (int, func(sample uint32) int, bool) {
	return c.m.Shards(), c.m.ShardOf, true
}

// FetchShard implements storage.ShardRouter: one round trip against a single
// shard's session, bypassing the partitioner. It is the per-shard issue
// queue of the clairvoyant prefetcher — each shard's link is kept busy by
// its own stream of FetchShard calls instead of sharing one globally-ordered
// window. Callers route by the same ShardMap (ShardInfo), so samples are
// expected to be owned by the shard; a shard transport failure is returned
// as an ErrShardDown-wrapped error regardless of DegradedMode — degrading is
// the scheduler's decision, which knows whether other shards can keep
// streaming.
func (c *ShardedClient) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	if err := validateBatch(samples, splits); err != nil {
		return nil, err
	}
	res, err := c.shards[shard].FetchBatch(ctx, samples, splits, epoch)
	if err != nil && !isItemError(err) && ctx.Err() == nil {
		err = downErr(shard, err)
	}
	return res, err
}

// Stats aggregates counters across the reachable shards (summing every
// field). A down shard is skipped in DegradedMode; otherwise its error is
// returned alongside the partial aggregate.
func (c *ShardedClient) Stats(ctx context.Context) (wire.StatsResp, error) {
	var agg wire.StatsResp
	var firstErr error
	for s, sc := range c.shards {
		st, err := sc.Stats(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = downErr(s, err)
			}
			continue
		}
		agg.SamplesServed += st.SamplesServed
		agg.OpsExecuted += st.OpsExecuted
		agg.BytesSent += st.BytesSent
		agg.ServerCPUNanos += st.ServerCPUNanos
	}
	if c.degraded {
		return agg, nil
	}
	return agg, firstErr
}

// ShardStat is one shard's stats snapshot, or the error that prevented it.
type ShardStat struct {
	Shard int
	Stats wire.StatsResp
	Err   error
}

// ShardStats returns per-shard stats so a deployment can be watched server
// by server.
func (c *ShardedClient) ShardStats(ctx context.Context) []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for s, sc := range c.shards {
		st, err := sc.Stats(ctx)
		out[s] = ShardStat{Shard: s, Stats: st, Err: err}
	}
	return out
}

// Close shuts every shard session; the first error wins.
func (c *ShardedClient) Close() error {
	var first error
	for _, sc := range c.shards {
		if err := sc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
