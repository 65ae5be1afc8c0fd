package prepsched

import (
	"sync"
	"testing"
)

func TestPoolConfigErrors(t *testing.T) {
	if _, err := NewPool[int](0, 8, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewPool[int](4, 2, nil); err == nil {
		t.Fatal("capacity below worker count accepted")
	}
}

// TestPoolConservesSamples churns a bounded pool with one dispatcher and W
// concurrent workers (each stealing when its own deque is dry) and checks
// the multiset identity end to end: every dispatched sample is taken exactly
// once, and the metrics count each class as dispatched.
func TestPoolConservesSamples(t *testing.T) {
	const (
		workers = 4
		n       = 4096
	)
	var m Metrics
	p, err := NewPool[int](workers, 2*workers, &m)
	if err != nil {
		t.Fatal(err)
	}
	classOf := func(i int) Class {
		if i%7 == 0 {
			return Heavy
		}
		return Light
	}
	var mu sync.Mutex
	taken := make(map[int]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				v, ok := p.Take(w)
				if !ok {
					return
				}
				mu.Lock()
				if taken[v] {
					t.Errorf("sample %d taken twice", v)
				}
				taken[v] = true
				mu.Unlock()
			}
		}(w)
	}
	var heavy int64
	for i := 0; i < n; i++ {
		if classOf(i) == Heavy {
			heavy++
		}
		if !p.Dispatch(i, i, classOf(i)) {
			t.Errorf("dispatch %d rejected", i)
		}
	}
	p.Close()
	wg.Wait()
	if len(taken) != n {
		t.Fatalf("took %d samples, dispatched %d", len(taken), n)
	}
	for i := 0; i < n; i++ {
		if !taken[i] {
			t.Fatalf("sample %d lost", i)
		}
	}
	s := m.Snapshot()
	if s.Light != n-heavy || s.Heavy != heavy {
		t.Fatalf("metrics dispatched %d light + %d heavy, want %d + %d", s.Light, s.Heavy, n-heavy, heavy)
	}
	if s.OwnPops+s.Steals != n {
		t.Fatalf("metrics takes %d+%d, want %d", s.OwnPops, s.Steals, n)
	}
	if want := float64(heavy) / n; s.HeavyFrac != want {
		t.Fatalf("heavy frac %v, want %v", s.HeavyFrac, want)
	}
	if p.Pending() != 0 {
		t.Fatalf("pending %d after drain", p.Pending())
	}
}

// TestPoolStopUnblocksEveryone parks workers on an empty pool and a
// dispatcher on a full one, then checks Stop releases them all with ok=false.
func TestPoolStopUnblocksEveryone(t *testing.T) {
	p, err := NewPool[int](2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill to capacity so the next Dispatch blocks.
	p.Dispatch(0, 0, Light)
	p.Dispatch(1, 1, Light)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if p.Dispatch(2, 2, Light) {
			t.Error("dispatch succeeded after stop")
		}
	}()
	// A worker on a second pool that is empty, to park in Take.
	empty, err := NewPool[int](2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := empty.Take(0); ok {
			t.Error("take succeeded on stopped empty pool")
		}
	}()
	p.Stop()
	empty.Stop()
	wg.Wait()
	// Stopped pools reject further traffic immediately.
	if p.Dispatch(3, 3, Light) {
		t.Fatal("dispatch accepted after stop")
	}
	if _, ok := p.Take(0); ok {
		t.Fatal("take returned a sample after stop")
	}
	if n := p.Pending(); n != 0 {
		t.Fatalf("stopped pool still holds %d samples", n)
	}
}

// TestPoolDrainsAfterClose closes with samples still queued and checks Take
// hands them all out before reporting done.
func TestPoolDrainsAfterClose(t *testing.T) {
	p, err := NewPool[int](2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p.Dispatch(i, i, Light)
	}
	p.Close()
	got := 0
	for {
		_, ok := p.Take(0)
		if !ok {
			break
		}
		got++
	}
	if got != 6 {
		t.Fatalf("drained %d samples, want 6", got)
	}
}

// TestPoolOwnerPreference checks a worker serves its own deque before
// stealing: with both deques loaded, worker 0's takes start with its own
// light-lane samples in FIFO order.
func TestPoolOwnerPreference(t *testing.T) {
	p, err := NewPool[int](2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Dispatch(0, 100, Light) // worker 0's deque
	p.Dispatch(2, 101, Light)
	p.Dispatch(1, 200, Light) // worker 1's deque
	for _, want := range []int{100, 101} {
		v, ok := p.Take(0)
		if !ok || v != want {
			t.Fatalf("take = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	v, ok := p.Take(0) // own deque empty: steal from worker 1
	if !ok || v != 200 {
		t.Fatalf("steal take = (%d,%v), want (200,true)", v, ok)
	}
}
