package storage

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestRetryPolicyNormalized: zero fields resolve to documented defaults,
// negative fields disable their knob, out-of-range values clamp.
func TestRetryPolicyNormalized(t *testing.T) {
	cases := []struct {
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
			want: RetryPolicy{Attempts: 2, BaseBackoff: 0, MaxBackoff: 0, Multiplier: 3, Jitter: 0},
		},
		{
			name: "max below base lifts to base",
			in:   RetryPolicy{Attempts: 1, BaseBackoff: time.Second, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: -1},
			want: RetryPolicy{Attempts: 1, BaseBackoff: time.Second, MaxBackoff: time.Second, Multiplier: 1, Jitter: 0},
		},
		{
			name: "multiplier below one clamps to constant backoff",
			in:   RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Multiplier: 0.5, Jitter: 2},
			want: RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Multiplier: 1, Jitter: 1},
		},
		{
			name: "negative attempts fall back to default budget",
			in:   RetryPolicy{Attempts: -7, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: -1},
			want: RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Multiplier: 1, Jitter: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Normalized(); got != tc.want {
				t.Fatalf("Normalized() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestRetryPolicyBackoff: the schedule grows exponentially, caps at
// MaxBackoff, and jitter stays within ±Jitter of the unjittered value.
func TestRetryPolicyBackoff(t *testing.T) {
	exp := RetryPolicy{Attempts: 8, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Multiplier: 2, Jitter: -1}
	cases := []struct {
		name  string
		p     RetryPolicy
		retry int
		u     float64
		want  time.Duration
	}{
		{"retry zero is free", exp, 0, 0.5, 0},
		{"first retry is base", exp, 1, 0.5, 10 * time.Millisecond},
		{"second doubles", exp, 2, 0.5, 20 * time.Millisecond},
		{"fourth is 8x", exp, 4, 0.5, 80 * time.Millisecond},
		{"fifth caps at max", exp, 5, 0.5, 100 * time.Millisecond},
		{"way past the cap stays capped", exp, 40, 0.5, 100 * time.Millisecond},
		{"disabled backoff is always zero",
			RetryPolicy{Attempts: 3, BaseBackoff: -1, MaxBackoff: -1, Multiplier: 1, Jitter: -1}, 3, 0.9, 0},
		{"constant multiplier never grows",
			RetryPolicy{Attempts: 5, BaseBackoff: 7 * time.Millisecond, MaxBackoff: time.Second, Multiplier: 1, Jitter: -1}, 4, 0.5, 7 * time.Millisecond},
	}
	for _, tc := range cases {
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
	want := RetryPolicy{Attempts: 5, BaseBackoff: 7 * time.Millisecond, MaxBackoff: 7 * time.Millisecond, Multiplier: 1, Jitter: 0}
	if got := rc.policy; got != want {
		t.Fatalf("legacy policy = %+v, want %+v", got, want)
	}
	// Zero backoff means "no pause", not "default pause".
	rc2, err := NewReconnecting(flakyDialer(t, l, 1<<30), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	if got := rc2.policy.BaseBackoff; got != 0 {
		t.Fatalf("legacy zero backoff resolved to %v", got)
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
