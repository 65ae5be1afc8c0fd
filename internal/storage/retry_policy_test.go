package storage

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// transientErr is a transport-flavored failure the retry loop must chew on.
var transientErr = errors.New("simulated transport failure")

// retryHarness builds a ReconnectingClient against a live in-memory server
// with the given budget and pause.
func retryHarness(t *testing.T, attempts int, pause time.Duration, clock simclock.Clock) *ReconnectingClient {
	t.Helper()
	l := startRetryServer(t, 1, 1)
	rc, err := NewReconnecting(flakyDialer(t, l, 1<<30), attempts, pause, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// TestWithRetryBudgetExhaustion: when every attempt fails transiently, the
// final error wraps the last underlying error and names the budget.
func TestWithRetryBudgetExhaustion(t *testing.T) {
	rc := retryHarness(t, 3, 0, nil)
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
	rc := retryHarness(t, 4, time.Hour, clock)

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

// TestRetryPauses: a client retries through its whole budget with the same
// pause before every retry, and a non-positive pause means none at all.
func TestRetryPauses(t *testing.T) {
	const attempts = 5
	for _, pause := range []time.Duration{0, -time.Second, 7 * time.Millisecond} {
		t.Run(pause.String(), func(t *testing.T) {
			clock := &pauseClock{Clock: simclock.Real()}
			rc := retryHarness(t, attempts, pause, clock)
			calls := 0
			err := rc.withRetry(context.Background(), func(*Client) error {
				calls++
				return transientErr
			})
			if !errors.Is(err, transientErr) || calls != attempts {
				t.Fatalf("op ran %d times and returned %v, want %d failing attempts", calls, err, attempts)
			}
			// sleepCtx hands the clock only positive pauses.
			want := 0
			if pause > 0 {
				want = attempts - 1
			}
			if len(clock.pauses) != want {
				t.Fatalf("%d pauses, want %d", len(clock.pauses), want)
			}
			for i, d := range clock.pauses {
				if d != max(pause, 0) {
					t.Errorf("pause %d of %d = %v, want %v", i+1, len(clock.pauses), d, max(pause, 0))
				}
			}
		})
	}
}
