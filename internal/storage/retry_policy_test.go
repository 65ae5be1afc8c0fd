package storage

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// normalizedCases: zero fields resolve to documented defaults, negative fields
// disable their knob, out-of-range values clamp.
var normalizedCases = []struct {
	name string
	in   RetryPolicy
	want RetryPolicy
}{
	{
		name: "zero value gets all defaults",
		in:   RetryPolicy{},
		want: RetryPolicy{Attempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 2 * time.Second, Multiplier: 2, Jitter: 0.2},
	},
	{
		name: "negative knobs disable",
		in:   RetryPolicy{Attempts: 2, BaseBackoff: -1, MaxBackoff: -1, Multiplier: 3, Jitter: -1},
		want: RetryPolicy{Attempts: 2, BaseBackoff: -1, MaxBackoff: -1, Multiplier: 3, Jitter: -1},
	},
	{
		name: "any negative knob disables as -1",
		in:   RetryPolicy{Attempts: 2, BaseBackoff: -5, MaxBackoff: -time.Second, Multiplier: 3, Jitter: -0.5},
		want: RetryPolicy{Attempts: 2, BaseBackoff: -1, MaxBackoff: -1, Multiplier: 3, Jitter: -1},
	},
	{
		name: "max below base lifts to base",
		in:   RetryPolicy{Attempts: 1, BaseBackoff: time.Second, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: -1},
		want: RetryPolicy{Attempts: 1, BaseBackoff: time.Second, MaxBackoff: time.Second, Multiplier: 1, Jitter: -1},
	},
	{
		name: "multiplier below one clamps to constant backoff",
		in:   RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Multiplier: 0.5, Jitter: 2},
		want: RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Multiplier: 1, Jitter: 1},
	},
	{
		name: "negative attempts fall back to default budget",
		in:   RetryPolicy{Attempts: -7, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: -1},
		want: RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: -1},
	},
	{
		name: "NaN multiplier and jitter take their defaults",
		in:   RetryPolicy{Attempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Multiplier: math.NaN(), Jitter: math.NaN()},
		want: RetryPolicy{Attempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Multiplier: 2, Jitter: 0.2},
	},
}

func TestRetryPolicyNormalized(t *testing.T) {
	for _, tc := range normalizedCases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.Normalized()
			if got != tc.want {
				t.Fatalf("Normalized() = %+v, want %+v", got, tc.want)
			}
			if again := got.Normalized(); again != got {
				t.Fatalf("Normalized() is not idempotent: %+v, then %+v", got, again)
			}
		})
	}
}

// backoffExp doubles from 10ms to a 100ms cap, with no jitter.
var backoffExp = RetryPolicy{Attempts: 8, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Multiplier: 2, Jitter: -1}

// backoffCases: the schedule grows exponentially and caps at MaxBackoff.
var backoffCases = []struct {
	name  string
	p     RetryPolicy
	retry int
	u     float64
	want  time.Duration
}{
	{"retry zero is free", backoffExp, 0, 0.5, 0},
	{"first retry is base", backoffExp, 1, 0.5, 10 * time.Millisecond},
	{"second doubles", backoffExp, 2, 0.5, 20 * time.Millisecond},
	{"fourth is 8x", backoffExp, 4, 0.5, 80 * time.Millisecond},
	{"fifth caps at max", backoffExp, 5, 0.5, 100 * time.Millisecond},
	{"way past the cap stays capped", backoffExp, 40, 0.5, 100 * time.Millisecond},
	{"disabled backoff is always zero",
		RetryPolicy{Attempts: 3, BaseBackoff: -1, MaxBackoff: -1, Multiplier: 1, Jitter: -1}, 3, 0.9, 0},
	{"constant multiplier never grows",
		RetryPolicy{Attempts: 5, BaseBackoff: 7 * time.Millisecond, MaxBackoff: time.Second, Multiplier: 1, Jitter: -1}, 4, 0.5, 7 * time.Millisecond},
	{"a huge retry count stays capped",
		RetryPolicy{Attempts: 5, BaseBackoff: 7 * time.Millisecond, MaxBackoff: time.Second, Multiplier: 1.5, Jitter: -1}, math.MaxInt, 0.5, time.Second},
	{"an unbounded pause clamps to the largest Duration",
		RetryPolicy{BaseBackoff: math.MaxInt64, MaxBackoff: math.MaxInt64, Jitter: 1}, 1, 0.999, math.MaxInt64},
}

// TestRetryPolicyBackoff: the table above, and jitter stays within ±Jitter
// of the unjittered value.
func TestRetryPolicyBackoff(t *testing.T) {
	for _, tc := range backoffCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Backoff(tc.retry, tc.u); got != tc.want {
				t.Fatalf("Backoff(%d, %v) = %v, want %v", tc.retry, tc.u, got, tc.want)
			}
		})
	}

	// Jitter bounds: every draw lands in [base·(1-j), base·(1+j)), and the
	// extremes of u map to the extremes of the window.
	j := RetryPolicy{Attempts: 2, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Multiplier: 1, Jitter: 0.2}
	lo := 80 * time.Millisecond
	hi := 120 * time.Millisecond
	for _, u := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999999} {
		got := j.Backoff(1, u)
		if got < lo || got > hi {
			t.Fatalf("Backoff(1, %v) = %v outside [%v, %v]", u, got, lo, hi)
		}
	}
	if got := j.Backoff(1, 0); got != lo {
		t.Fatalf("u=0 should hit the low edge: %v != %v", got, lo)
	}
}

// FuzzRetryPolicy: for any policy, NaN and ±Inf bit patterns included,
// Normalized is idempotent and Backoff(k, u) for k ≥ 1 and u in [0, 1) lies
// in [0, MaxBackoff·(1 + max(Jitter, 0))], and is 0 when BaseBackoff is
// disabled. The multiplier and jitter arrive as raw float64 bits, u as the
// top 53 bits of a uint64.
func FuzzRetryPolicy(f *testing.F) {
	uBits := func(u float64) uint64 { return uint64(u*(1<<53)) << 11 }
	add := func(p RetryPolicy, k int, u float64) {
		f.Add(p.Attempts, int64(p.BaseBackoff), int64(p.MaxBackoff), math.Float64bits(p.Multiplier), math.Float64bits(p.Jitter), k, uBits(u))
	}
	for _, tc := range normalizedCases {
		add(tc.in, 1, 0.5)
	}
	for _, tc := range backoffCases {
		add(tc.p, tc.retry, tc.u)
	}
	f.Fuzz(func(t *testing.T, attempts int, base, max int64, mult, jitter uint64, k int, ub uint64) {
		p := RetryPolicy{
			Attempts:    attempts,
			BaseBackoff: time.Duration(base),
			MaxBackoff:  time.Duration(max),
			Multiplier:  math.Float64frombits(mult),
			Jitter:      math.Float64frombits(jitter),
		}
		n := p.Normalized()
		if again := n.Normalized(); again != n {
			t.Fatalf("Normalized(%+v) = %+v, then %+v", p, n, again)
		}
		if k < 1 {
			k = 1
		}
		u := float64(ub>>11) / (1 << 53)
		got := p.Backoff(k, u)
		bound := math.Max(float64(n.MaxBackoff), 0) * (1 + math.Max(n.Jitter, 0))
		if got < 0 || float64(got) > bound {
			t.Fatalf("%+v.Backoff(%d, %v) = %v outside [0, %v]", p, k, u, got, time.Duration(bound))
		}
		if n.BaseBackoff < 0 && got != 0 {
			t.Fatalf("%+v.Backoff(%d, %v) = %v with the pause disabled", p, k, u, got)
		}
	})
}

// transientErr is a transport-flavored failure the retry loop must chew on.
var transientErr = errors.New("simulated transport failure")

// retryHarness builds a ReconnectingClient against a live in-memory server
// with the given policy.
func retryHarness(t *testing.T, policy RetryPolicy, clock simclock.Clock) *ReconnectingClient {
	t.Helper()
	l := startRetryServer(t, 1, 1)
	rc, err := NewReconnectingWithPolicy(flakyDialer(t, l, 1<<30), policy, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// TestWithRetryBudgetExhaustion: when every attempt fails transiently, the
// final error wraps the last underlying error and names the budget.
func TestWithRetryBudgetExhaustion(t *testing.T) {
	rc := retryHarness(t, RetryPolicy{Attempts: 3, BaseBackoff: -1, Jitter: -1}, nil)
	calls := 0
	err := rc.withRetry(context.Background(), func(c *Client) error {
		calls++
		return transientErr
	})
	if !errors.Is(err, transientErr) {
		t.Fatalf("exhausted budget should wrap the last underlying error, got %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error should name the budget: %v", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, budget was 3", calls)
	}
}

// TestWithRetryCtxCancelMidBackoff: cancellation during a backoff pause
// aborts the wait immediately with a context error — it does not sit out the
// rest of the pause. The virtual clock never advances, so any completion at
// all proves the cancel path; the error must still be matchable.
func TestWithRetryCtxCancelMidBackoff(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	rc := retryHarness(t, RetryPolicy{Attempts: 4, BaseBackoff: time.Hour, MaxBackoff: time.Hour, Multiplier: 1, Jitter: -1}, clock)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- rc.withRetry(ctx, func(c *Client) error { return transientErr })
	}()

	// Wait until the retry loop is parked in its backoff sleep, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for clock.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry loop never reached the backoff sleep")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel mid-backoff returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withRetry still blocked after cancel — backoff sleep is not ctx-aware")
	}
}

// TestLegacyConstructorPolicy: the (attempts, backoff) constructor maps onto
// a constant, jitter-free policy so old call sites keep their exact timing.
func TestLegacyConstructorPolicy(t *testing.T) {
	l := startRetryServer(t, 1, 1)
	rc, err := NewReconnecting(flakyDialer(t, l, 1<<30), 5, 7*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	want := RetryPolicy{Attempts: 5, BaseBackoff: 7 * time.Millisecond, MaxBackoff: 7 * time.Millisecond, Multiplier: 1, Jitter: -1}
	if got := rc.policy; got != want {
		t.Fatalf("legacy policy = %+v, want %+v", got, want)
	}
	// Zero backoff means "no pause", not "default pause".
	rc2, err := NewReconnecting(flakyDialer(t, l, 1<<30), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	if got := rc2.policy.BaseBackoff; got != -1 {
		t.Fatalf("legacy zero backoff resolved to %v, want the disabled -1", got)
	}
}

// TestSleepCtx: the helper honors both the clock and the context, and a
// non-positive duration returns without touching the clock.
func TestSleepCtx(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if err := sleepCtx(context.Background(), clock, 0); err != nil {
		t.Fatalf("zero sleep: %v", err)
	}
	if clock.PendingWaiters() != 0 {
		t.Fatal("zero sleep queued a waiter")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleepCtx(ctx, clock, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sleep: %v", err)
	}
	// Fresh clock: the canceled call above legitimately left its 1h waiter
	// queued (select abandoned it), which would confuse the parked check.
	clock2 := simclock.NewVirtual(time.Unix(0, 0))
	done := make(chan error, 1)
	go func() { done <- sleepCtx(context.Background(), clock2, time.Minute) }()
	deadline := time.Now().Add(5 * time.Second)
	for clock2.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sleeper never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clock2.Advance(time.Minute)
	if err := <-done; err != nil {
		t.Fatalf("completed sleep: %v", err)
	}
}

// pauseClock records every pause handed to After and fires at once, so a
// retry loop runs its whole budget without waiting.
type pauseClock struct {
	simclock.Clock
	mu     sync.Mutex
	pauses []time.Duration
}

func (c *pauseClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.pauses = append(c.pauses, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

// TestRetryNoPauseNeverPauses: a policy that disables its pause retries
// through its whole budget without one nonzero pause, although the client
// stores the normalized policy and Backoff normalizes it again.
func TestRetryNoPauseNeverPauses(t *testing.T) {
	const attempts = 5
	constant, err := ConstantBackoff(attempts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy RetryPolicy
	}{
		{"negative base and jitter", RetryPolicy{Attempts: attempts, BaseBackoff: -1, Jitter: -1}},
		{"ConstantBackoff with zero backoff", constant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &pauseClock{Clock: simclock.Real()}
			rc := retryHarness(t, tc.policy, clock)
			calls := 0
			err := rc.withRetry(context.Background(), func(*Client) error {
				calls++
				return transientErr
			})
			if !errors.Is(err, transientErr) || calls != attempts {
				t.Fatalf("op ran %d times and returned %v, want %d failing attempts", calls, err, attempts)
			}
			for i, d := range clock.pauses {
				if d != 0 {
					t.Errorf("pause %d of %d = %v, want 0", i+1, len(clock.pauses), d)
				}
			}
			for k := 1; k < attempts; k++ {
				if d := rc.policy.Backoff(k, 0.999); d != 0 {
					t.Errorf("Backoff(%d) = %v, want 0", k, d)
				}
			}
		})
	}
}
