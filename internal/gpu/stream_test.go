package gpu

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// stepClock is a clock that only Sleep moves: a Sleep advances Now by its
// duration at once and is recorded; advance stands for time spent elsewhere.
type stepClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newStepClock() *stepClock { return &stepClock{now: time.Unix(1000, 0)} }

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func (c *stepClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// slept returns the sleeps recorded since the last call.
func (c *stepClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sleeps
	c.sleeps = nil
	return out
}

// tenMsModel steps a batch of n samples in n × 10 ms.
var tenMsModel = Model{Name: "m", Throughput: 100}

func assertSlept(t *testing.T, c *stepClock, want ...time.Duration) {
	t.Helper()
	if got := c.slept(); !slices.Equal(got, want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
}

func TestStreamSubmitReturnsBeforeStepEnds(t *testing.T) {
	c := newStepClock()
	s := NewStream(tenMsModel, c)
	t0 := c.Now()
	if d := s.Submit(10); d != 100*time.Millisecond {
		t.Fatalf("Submit(10) = %v, want 100ms", d)
	}
	assertSlept(t, c)
	if !c.Now().Equal(t0) {
		t.Fatalf("Submit took %v of clock time", c.Now().Sub(t0))
	}
}

func TestStreamNextSubmitWaitsTheRemainder(t *testing.T) {
	c := newStepClock()
	s := NewStream(tenMsModel, c)
	s.Submit(10) // busy 100 ms
	c.advance(30 * time.Millisecond)
	s.Submit(5) // waits 70 ms, then busy 50 ms
	assertSlept(t, c, 70*time.Millisecond)
	c.advance(80 * time.Millisecond) // the device has been idle 30 ms
	s.Submit(1)
	assertSlept(t, c)
	s.Drain()
	assertSlept(t, c, 10*time.Millisecond)
}

// TestStreamStepsNeverOverlap: under random loading times each step starts
// when both its batch and the device are ready — never earlier, and with no
// idle gap the loader did not cause.
func TestStreamStepsNeverOverlap(t *testing.T) {
	c := newStepClock()
	s := NewStream(tenMsModel, c)
	rng := rand.New(rand.NewSource(1))
	var prevEnd time.Time
	for k := 0; k < 500; k++ {
		c.advance(time.Duration(rng.Intn(120)) * time.Millisecond)
		ready := c.Now()
		d := s.Submit(1 + rng.Intn(10))
		start := c.Now()
		want := ready
		if prevEnd.After(want) {
			want = prevEnd
		}
		if !start.Equal(want) {
			t.Fatalf("step %d starts %v after its batch, want %v", k, start.Sub(ready), want.Sub(ready))
		}
		prevEnd = start.Add(d)
	}
}

func TestStreamDrainIsIdempotent(t *testing.T) {
	c := newStepClock()
	s := NewStream(tenMsModel, c)
	s.Drain()
	assertSlept(t, c)
	s.Submit(4)
	s.Drain()
	assertSlept(t, c, 40*time.Millisecond)
	s.Drain()
	s.Drain()
	assertSlept(t, c)
}

func TestStreamZeroBatchIsNoOp(t *testing.T) {
	c := newStepClock()
	s := NewStream(tenMsModel, c)
	s.Submit(3)
	for _, size := range []int{0, -2} {
		if d := s.Submit(size); d != 0 {
			t.Fatalf("Submit(%d) = %v", size, d)
		}
	}
	assertSlept(t, c)
	s.Drain() // the empty batches neither waited nor moved the busy instant
	assertSlept(t, c, 30*time.Millisecond)

	invalid := NewStream(Model{}, c)
	if d := invalid.Submit(8); d != 0 {
		t.Fatalf("invalid model stepped %v", d)
	}
}

// TestStreamConcurrentSubmitAndDrain: submitters and drainers on several
// goroutines are served one at a time, so on a clock that only sleeps move
// the device ends exactly Σ step times after it started.
func TestStreamConcurrentSubmitAndDrain(t *testing.T) {
	c := newStepClock()
	s := NewStream(tenMsModel, c)
	t0 := c.Now()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total time.Duration
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine time.Duration
			for k := 0; k < 50; k++ {
				if k%10 == 9 {
					s.Drain()
					continue
				}
				mine += s.Submit(rng.Intn(5))
			}
			mu.Lock()
			total += mine
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	s.Drain()
	if got := c.Now().Sub(t0); got != total {
		t.Fatalf("device ran %v for %v of steps", got, total)
	}
	var slept time.Duration
	for _, d := range c.slept() {
		slept += d
	}
	if slept != total {
		t.Fatalf("slept %v for %v of steps", slept, total)
	}
}
