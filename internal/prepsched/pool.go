package prepsched

import (
	"errors"
	"fmt"
	"sync"
)

// Pool fans dispatched samples out over per-worker two-lane deques and lets
// idle workers steal from busy ones. A single dispatcher assigns sample seq
// to deque seq%W — the same static assignment FIFO scheduling would use — so
// work-stealing changes only who executes a sample and when, never what is
// computed. Dispatch is capacity-bounded so the dispatcher cannot run
// arbitrarily far ahead of the workers and defeat the prefetcher's staging
// discipline.
//
// Lifecycle: the dispatcher calls Dispatch until the stream ends, then
// Close; workers loop on Take until it returns false (drained after Close,
// or aborted by Stop). Stop wakes every blocked Dispatch and Take for
// error-path teardown.
type Pool[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	deques  []Deque[T]
	pending int
	cap     int
	closed  bool
	stopped bool
	metrics *Metrics
}

// NewPool builds a pool of workers deques holding at most capacity
// undispatched samples. metrics may be nil.
func NewPool[T any](workers, capacity int, m *Metrics) (*Pool[T], error) {
	if workers <= 0 {
		return nil, errors.New("prepsched: pool needs at least one worker")
	}
	if capacity < workers {
		return nil, fmt.Errorf("prepsched: pool capacity %d below worker count %d", capacity, workers)
	}
	p := &Pool[T]{
		deques:  make([]Deque[T], workers),
		cap:     capacity,
		metrics: m,
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// Workers returns the number of per-worker deques.
func (p *Pool[T]) Workers() int { return len(p.deques) }

// Dispatch queues v on deque seq%W, blocking while the pool is at capacity.
// Returns false once the pool is closed or stopped — the value was not
// queued and the dispatcher should quit.
func (p *Pool[T]) Dispatch(seq int, v T, c Class) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending >= p.cap && !p.stopped && !p.closed {
		p.cond.Wait()
	}
	if p.stopped || p.closed {
		return false
	}
	p.deques[seq%len(p.deques)].Push(v, c)
	p.pending++
	p.metrics.noteDispatch(c)
	p.cond.Broadcast()
	return true
}

// Take serves worker owner: its own Pop first (per-class FIFO, light first),
// else a steal sweep over the other deques in ring order. Blocks when every
// deque is empty but more work may still arrive; returns false when the pool
// is stopped, or closed and fully drained.
func (p *Pool[T]) Take(owner int) (T, Class, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped {
			var zero T
			return zero, Light, false
		}
		if p.pending > 0 {
			if v, c, ok := p.deques[owner%len(p.deques)].Pop(); ok {
				p.pending--
				p.metrics.noteOwnPop()
				p.cond.Broadcast()
				return v, c, true
			}
			for i := 1; i < len(p.deques); i++ {
				if v, c, ok := p.deques[(owner+i)%len(p.deques)].Steal(); ok {
					p.pending--
					p.metrics.noteSteal()
					p.cond.Broadcast()
					return v, c, true
				}
			}
		}
		if p.closed {
			var zero T
			return zero, Light, false
		}
		p.metrics.noteStall()
		p.cond.Wait()
	}
}

// Close marks the stream complete: blocked Dispatch calls return false, and
// Take drains the remaining queued samples before returning false.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Stop aborts the pool: every blocked Dispatch and Take wakes and returns
// false immediately, and queued samples are dropped, so a stopped pool holds
// no references and Pending reads 0. For error-path teardown.
func (p *Pool[T]) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.deques = make([]Deque[T], len(p.deques))
	p.pending = 0
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Pending reports the queued-but-untaken sample count.
func (p *Pool[T]) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}
