// Package simclock provides a clock abstraction with two implementations: a
// wall clock backed by package time, and a deterministic virtual clock that
// only advances when told to. The virtual clock lets the discrete-event
// engine and the live trainer share timing code while keeping benchmarks
// fast and reproducible.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// Sleep blocks the caller for d. On the virtual clock, Sleep returns
	// once the clock has been advanced past the deadline.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real returns a Clock backed by the system wall clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a deterministic, manually advanced clock. Goroutines blocked in
// Sleep or waiting on After channels are released in timestamp order as the
// clock advances. The zero value is not usable; call NewVirtual.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

type waiter struct {
	at  time.Time
	seq int64
	ch  chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now returns the virtual instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep blocks until the virtual clock reaches Now()+d. A non-positive d
// returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// After returns a channel that fires when the clock passes Now()+d. The
// channel is buffered so Advance never blocks on delivery.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.seq++
	heap.Push(&v.waiters, &waiter{at: v.now.Add(d), seq: v.seq, ch: ch})
	return ch
}

// Advance moves the clock forward by d, releasing every waiter whose
// deadline falls within the advanced window, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	v.mu.Lock()
	target := v.now.Add(d)
	for v.waiters.Len() > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.at
		w.ch <- v.now
	}
	v.now = target
	v.mu.Unlock()
}

// PendingWaiters reports how many sleepers are currently queued.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.waiters.Len()
}
