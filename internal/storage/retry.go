package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/wire"
)

// sleepCtx pauses for d on clock, aborting early with ctx's error if the
// caller cancels mid-backoff.
func sleepCtx(ctx context.Context, clock simclock.Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-clock.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReconnectingClient wraps a dialer with transparent reconnect-and-retry:
// when an operation fails on the current session, the session is torn down,
// a fresh one is dialed, and the operation retried, up to attempts tries with
// a fixed pause before each retry. Fetches are idempotent — augmentation
// seeds depend only on (job, epoch, sample) — so retrying is always safe.
//
// The wrapper preserves the session's pipelining: no lock is held while an
// operation is in flight, so concurrent callers share one multiplexed
// session. Reconnects are single-flight via a generation counter — when
// several in-flight operations fail on the same broken session, only the
// first tears it down and the rest simply retry on the replacement.
type ReconnectingClient struct {
	dial     func() (*Client, error)
	attempts int           // tries per operation, the first included
	pause    time.Duration // before each retry; ≤ 0 means none
	clock    simclock.Clock

	// The first handshake's facts, cached so they remain available while the
	// session is down between retries.
	tier Tier

	mu      sync.Mutex
	current *Client // nil while broken, until the next acquire redials
	gen     int64
	closed  bool
	retries int64
}

// NewReconnecting dials eagerly and returns a client that survives
// connection failures: each operation gets attempts tries (≥ 1), with pause
// before each retry (≤ 0 means none).
func NewReconnecting(dial func() (*Client, error), attempts int, pause time.Duration, clock simclock.Clock) (*ReconnectingClient, error) {
	if dial == nil {
		return nil, errors.New("storage: nil dialer")
	}
	if attempts < 1 {
		return nil, fmt.Errorf("storage: attempts %d < 1", attempts)
	}
	if clock == nil {
		clock = simclock.Real()
	}
	first, err := dial()
	if err != nil {
		return nil, err
	}
	return &ReconnectingClient{
		dial:     dial,
		attempts: attempts,
		pause:    pause,
		clock:    clock,
		tier:     first.Tier(),
		current:  first,
	}, nil
}

// Retries reports how many reconnects have happened.
func (r *ReconnectingClient) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// Tier returns the facts of the original handshake.
func (r *ReconnectingClient) Tier() Tier { return r.tier }

// acquire returns the live session and its generation, redialing if the
// previous one was invalidated. Dialing happens under the lock, so exactly
// one caller redials while the rest wait for the result. A redialed server
// that states other tier facts than the first (restarted with another
// -crop, say) is refused: its artifacts would not match the plan's.
func (r *ReconnectingClient) acquire() (*Client, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrClientClosed
	}
	if r.current != nil {
		return r.current, r.gen, nil
	}
	next, err := r.dial()
	if err != nil {
		return nil, 0, err
	}
	if t := next.Tier(); t != r.tier {
		next.Close()
		return nil, 0, fmt.Errorf("storage: redialed server states %+v, the first stated %+v", t, r.tier)
	}
	r.current = next
	r.retries++
	return r.current, r.gen, nil
}

// invalidate tears down the session a failed operation ran on — but only if
// no other caller already did (the generation check makes teardown
// single-flight across concurrent failures).
func (r *ReconnectingClient) invalidate(gen int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.gen != gen || r.current == nil {
		return
	}
	r.current.Close()
	r.current = nil
	r.gen++
}

// withRetry runs op against the current session, reconnecting between
// attempts after the client's fixed pause. Application-level rejections
// (missing sample, bad split) and caller cancellation are returned
// immediately — only transport-level errors trigger a retry. Checksum
// failures (wire.ErrChecksum) are transport-level by construction: a
// corrupted frame never decodes into a wrong result, it tears the session
// down and lands here as a retryable error.
//
// Admission-control rejections (retryAfterError) are the
// third kind: retryable, but on a HEALTHY session. They never tear the
// connection down — reconnect stampedes are exactly what a shedding server
// doesn't need — and the next attempt waits at least the server's
// retry-after hint (the client's own pause still applies when larger).
func (r *ReconnectingClient) withRetry(ctx context.Context, op func(*Client) error) error {
	var lastErr error
	var hint time.Duration // server's retry-after ask, if any
	for try := 0; try < r.attempts; try++ {
		if try > 0 {
			pause := max(r.pause, hint)
			hint = 0
			if err := sleepCtx(ctx, r.clock, pause); err != nil {
				return fmt.Errorf("storage: %w during retry backoff (last error: %v)", err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		c, gen, err := r.acquire()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return err
			}
			lastErr = err
			continue
		}
		err = op(c)
		if err == nil {
			return nil
		}
		if isPermanent(err) || errors.Is(err, context.Canceled) {
			return err
		}
		lastErr = err
		var ra *retryAfterError
		if errors.As(err, &ra) {
			hint = ra.Delay
			continue
		}
		r.invalidate(gen)
	}
	return fmt.Errorf("storage: giving up after %d attempts: %w", r.attempts, lastErr)
}

// isPermanent reports whether the server rejected the request itself (no
// point retrying).
func isPermanent(err error) bool {
	return errors.Is(err, ErrSampleMissing) ||
		errors.Is(err, ErrBadSplitReq) ||
		errors.Is(err, ErrFetchFailed)
}

// Fetch implements Fetcher.
func (r *ReconnectingClient) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (FetchResult, error) {
	return FetchOne(ctx, r, sample, split, epoch)
}

// errItemsPending marks a batch round that succeeded at the transport level
// but left items needing a re-request; it drives the retry loop.
var errItemsPending = errors.New("storage: batch items pending retry")

// FetchBatch is Client.FetchBatch with reconnect-and-retry. Across attempts
// only the samples that failed transiently are re-requested; samples already
// fetched keep their results. Items that still fail after all attempts carry
// their error in FetchResult.Err (the call itself returns nil), matching the
// per-item contract of Client.FetchBatch.
func (r *ReconnectingClient) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]FetchResult, error) {
	if len(samples) == 0 {
		return nil, errors.New("storage: empty batch")
	}
	if len(samples) != len(splits) {
		return nil, fmt.Errorf("storage: %d samples but %d splits", len(samples), len(splits))
	}
	out := make([]FetchResult, len(samples))
	pending := make([]int, len(samples)) // indices into samples still to fetch
	for i := range pending {
		pending[i] = i
	}
	err := r.withRetry(ctx, func(c *Client) error {
		subSamples := make([]uint32, len(pending))
		subSplits := make([]int, len(pending))
		for j, idx := range pending {
			subSamples[j] = samples[idx]
			subSplits[j] = splits[idx]
		}
		res, err := c.FetchBatch(ctx, subSamples, subSplits, epoch)
		if err != nil {
			return err
		}
		var remaining []int
		for j, item := range res {
			idx := pending[j]
			out[idx] = item
			if item.Err != nil && !isPermanent(item.Err) {
				remaining = append(remaining, idx)
			}
		}
		pending = remaining
		if len(pending) > 0 {
			return fmt.Errorf("%w: %d of %d", errItemsPending, len(pending), len(samples))
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, errItemsPending) {
			// Every still-pending item carries its own Err from the last
			// round; per-item semantics say the call itself succeeds.
			return out, nil
		}
		return nil, err
	}
	return out, nil
}

// Stats is Client.Stats with reconnect-and-retry.
func (r *ReconnectingClient) Stats(ctx context.Context) (out wire.StatsResp, err error) {
	err = r.withRetry(ctx, func(c *Client) error {
		s, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		out = s
		return nil
	})
	return out, err
}

// Close shuts the live session; idempotent.
func (r *ReconnectingClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.current != nil {
		return r.current.Close()
	}
	return nil
}
