package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/wire"
)

// Defaults for the zero-value RetryPolicy.
const (
	DefaultRetryAttempts = 4
	DefaultRetryBase     = 10 * time.Millisecond
	DefaultRetryMax      = 2 * time.Second
	DefaultRetryMult     = 2.0
	DefaultRetryJitter   = 0.2
)

// RetryPolicy is a per-request retry budget with jittered exponential
// backoff. The zero value resolves to sane defaults (Normalized documents
// them); a negative BaseBackoff, MaxBackoff, or Jitter explicitly disables
// that knob, which is how "retry immediately, no jitter" is spelled.
type RetryPolicy struct {
	// Attempts is the per-operation try budget (0 → 4). The first try
	// counts, so Attempts=1 means no retries.
	Attempts int
	// BaseBackoff is the pause before the first retry (0 → 10ms, <0 → none).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 → 2s, <0 → no pause cap
	// beyond BaseBackoff).
	MaxBackoff time.Duration
	// Multiplier grows the pause between consecutive retries (0 → 2.0;
	// values below 1 clamp to 1, i.e. constant backoff).
	Multiplier float64
	// Jitter spreads each pause uniformly across ±Jitter·pause to keep
	// concurrent retriers from stampeding in lockstep (0 → 0.2, <0 → none,
	// >1 clamps to 1).
	Jitter float64
}

// Normalized resolves zero fields to defaults and clamps out-of-range
// values. Backoff and the retry loop always operate on a normalized policy.
func (p RetryPolicy) Normalized() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryAttempts
	}
	switch {
	case p.BaseBackoff == 0:
		p.BaseBackoff = DefaultRetryBase
	case p.BaseBackoff < 0:
		p.BaseBackoff = 0
	}
	switch {
	case p.MaxBackoff == 0:
		p.MaxBackoff = DefaultRetryMax
	case p.MaxBackoff < 0:
		p.MaxBackoff = 0
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	switch {
	case p.Multiplier == 0:
		p.Multiplier = DefaultRetryMult
	case p.Multiplier < 1:
		p.Multiplier = 1
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = DefaultRetryJitter
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Backoff returns the pause before retry number retry (1-based: retry 1
// follows the first failed attempt). u in [0,1) supplies the jitter draw, so
// the function stays pure and table-testable; the result always lies within
// ±Jitter of the unjittered exponential value, capped at MaxBackoff.
func (p RetryPolicy) Backoff(retry int, u float64) time.Duration {
	p = p.Normalized()
	if retry < 1 || p.BaseBackoff == 0 {
		return 0
	}
	d := float64(p.BaseBackoff)
	max := float64(p.MaxBackoff)
	for i := 1; i < retry && d < max; i++ {
		d *= p.Multiplier
	}
	if d > max {
		d = max
	}
	d *= 1 + p.Jitter*(2*u-1)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

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
// a fresh one is dialed (with backoff), and the operation retried. Fetches
// are idempotent — augmentation seeds depend only on (job, epoch, sample) —
// so retrying is always safe.
//
// The wrapper preserves the session's pipelining: no lock is held while an
// operation is in flight, so concurrent callers share one multiplexed
// session. Reconnects are single-flight via a generation counter — when
// several in-flight operations fail on the same broken session, only the
// first tears it down and the rest simply retry on the replacement.
type ReconnectingClient struct {
	dial   func() (*Client, error)
	policy RetryPolicy // always normalized
	clock  simclock.Clock

	// Handshake facts cached at construction so they remain available
	// while the session is down between retries.
	datasetName string
	numSamples  int

	mu      sync.Mutex
	current *Client // nil while broken, until the next acquire redials
	gen     int64
	closed  bool
	retries int64
	rng     *rand.Rand // jitter draws, guarded by mu
}

// ConstantBackoff is the policy of attempts tries per operation (≥ 1) with
// the same pause before each redial: no growth, no jitter.
func ConstantBackoff(attempts int, backoff time.Duration) (RetryPolicy, error) {
	if attempts < 1 {
		return RetryPolicy{}, fmt.Errorf("storage: attempts %d < 1", attempts)
	}
	if backoff <= 0 {
		backoff = -1 // explicit "no pause", not "use the default"
	}
	return RetryPolicy{
		Attempts:    attempts,
		BaseBackoff: backoff,
		MaxBackoff:  backoff,
		Multiplier:  1,
		Jitter:      -1,
	}, nil
}

// NewReconnecting dials eagerly and returns a client that survives
// connection failures, retrying under ConstantBackoff(attempts, backoff).
// For jittered exponential backoff use NewReconnectingWithPolicy.
func NewReconnecting(dial func() (*Client, error), attempts int, backoff time.Duration, clock simclock.Clock) (*ReconnectingClient, error) {
	policy, err := ConstantBackoff(attempts, backoff)
	if err != nil {
		return nil, err
	}
	return NewReconnectingWithPolicy(dial, policy, clock)
}

// NewReconnectingWithPolicy dials eagerly and returns a client whose retry
// loop follows policy (zero fields resolve to defaults, see RetryPolicy).
func NewReconnectingWithPolicy(dial func() (*Client, error), policy RetryPolicy, clock simclock.Clock) (*ReconnectingClient, error) {
	if dial == nil {
		return nil, errors.New("storage: nil dialer")
	}
	if clock == nil {
		clock = simclock.Real()
	}
	first, err := dial()
	if err != nil {
		return nil, err
	}
	p := policy.Normalized()
	return &ReconnectingClient{
		dial:        dial,
		policy:      p,
		clock:       clock,
		datasetName: first.DatasetName(),
		numSamples:  first.NumSamples(),
		current:     first,
		// The jitter stream is seeded from the policy shape only, so runs
		// are reproducible given the same call sequence; jitter spreads
		// concurrent retriers, it is not a correctness input.
		rng: rand.New(rand.NewPCG(uint64(p.Attempts)<<32^uint64(p.BaseBackoff), uint64(p.MaxBackoff))),
	}, nil
}

// Policy returns the client's normalized retry policy.
func (r *ReconnectingClient) Policy() RetryPolicy { return r.policy }

// Retries reports how many reconnects have happened.
func (r *ReconnectingClient) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// DatasetName returns the dataset name from the original handshake.
func (r *ReconnectingClient) DatasetName() string { return r.datasetName }

// NumSamples returns the dataset size from the original handshake.
func (r *ReconnectingClient) NumSamples() int { return r.numSamples }

// acquire returns the live session and its generation, redialing if the
// previous one was invalidated. Dialing happens under the lock, so exactly
// one caller redials while the rest wait for the result.
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
// attempts with jittered exponential backoff. Application-level rejections
// (missing sample, bad split) and caller cancellation are returned
// immediately — only transport-level errors trigger a retry. Checksum
// failures (wire.ErrChecksum) are transport-level by construction: a
// corrupted frame never decodes into a wrong result, it tears the session
// down and lands here as a retryable error.
//
// Admission-control rejections (ErrServerBusy / RetryAfterError) are the
// third kind: retryable, but on a HEALTHY session. They never tear the
// connection down — reconnect stampedes are exactly what a shedding server
// doesn't need — and the next attempt waits at least the server's
// retry-after hint (the policy backoff still applies when larger).
func (r *ReconnectingClient) withRetry(ctx context.Context, op func(*Client) error) error {
	var lastErr error
	var hint time.Duration // server's retry-after ask, if any
	for try := 0; try < r.policy.Attempts; try++ {
		if try > 0 {
			pause := r.policy.Backoff(try, r.jitterDraw())
			if hint > pause {
				pause = hint
			}
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
		var ra *RetryAfterError
		if errors.As(err, &ra) {
			hint = ra.Delay
			continue
		}
		r.invalidate(gen)
	}
	return fmt.Errorf("storage: giving up after %d attempts: %w", r.policy.Attempts, lastErr)
}

// jitterDraw returns the next uniform draw in [0,1) for backoff jitter.
func (r *ReconnectingClient) jitterDraw() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
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
