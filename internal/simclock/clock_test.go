package simclock

import (
	"container/heap"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2024, 7, 8, 0, 0, 0, 0, time.UTC)

func TestRealClockNow(t *testing.T) {
	c := Real()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRealClockAfter(t *testing.T) {
	c := Real()
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("real After never fired")
	}
}

func TestVirtualNowStationary(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now = %v, want %v", got, epoch)
	}
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now moved without Advance: %v", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(3 * time.Second)
	if got, want := v.Now(), epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
	v.Advance(-time.Second) // negative is a no-op
	if got, want := v.Now(), epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("negative Advance moved clock: %v", got)
	}
}

func TestVirtualAfterOrdering(t *testing.T) {
	v := NewVirtual(epoch)
	c2 := v.After(2 * time.Second)
	c1 := v.After(1 * time.Second)
	v.Advance(5 * time.Second)
	t1 := <-c1
	t2 := <-c2
	if !t1.Equal(epoch.Add(1 * time.Second)) {
		t.Fatalf("first waiter fired at %v", t1)
	}
	if !t2.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("second waiter fired at %v", t2)
	}
}

func TestVirtualAfterNonPositive(t *testing.T) {
	v := NewVirtual(epoch)
	select {
	case tm := <-v.After(0):
		if !tm.Equal(epoch) {
			t.Fatalf("immediate waiter got %v", tm)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestVirtualSleepReleasedByAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	for v.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	v.Advance(10 * time.Second)
	wg.Wait()
	<-done
}

func TestVirtualSleepZero(t *testing.T) {
	v := NewVirtual(epoch)
	start := time.Now()
	v.Sleep(0)
	v.Sleep(-time.Hour)
	if time.Since(start) > time.Second {
		t.Fatal("Sleep(<=0) blocked")
	}
}

func TestVirtualAdvanceToNext(t *testing.T) {
	v := NewVirtual(epoch)
	if v.AdvanceToNext() {
		t.Fatal("AdvanceToNext reported waiter on empty clock")
	}
	ch := v.After(7 * time.Second)
	if !v.AdvanceToNext() {
		t.Fatal("AdvanceToNext missed pending waiter")
	}
	tm := <-ch
	if !tm.Equal(epoch.Add(7 * time.Second)) {
		t.Fatalf("waiter fired at %v", tm)
	}
	if !v.Now().Equal(epoch.Add(7 * time.Second)) {
		t.Fatalf("clock at %v after AdvanceToNext", v.Now())
	}
}

func TestVirtualTieBreakFIFO(t *testing.T) {
	v := NewVirtual(epoch)
	a := v.After(time.Second)
	b := v.After(time.Second)
	v.Advance(time.Second)
	// After channels are buffered, so both deliveries happened inside
	// Advance — in registration order, by the heap's sequence tie-break —
	// and the values are already waiting. No goroutines, no sleeps.
	want := epoch.Add(time.Second)
	select {
	case ta := <-a:
		if !ta.Equal(want) {
			t.Fatalf("waiter a fired at %v, want %v", ta, want)
		}
	default:
		t.Fatal("tied waiter a not released by Advance")
	}
	select {
	case tb := <-b:
		if !tb.Equal(want) {
			t.Fatalf("waiter b fired at %v, want %v", tb, want)
		}
	default:
		t.Fatal("tied waiter b not released by Advance")
	}
}

func TestVirtualManyWaitersStress(t *testing.T) {
	v := NewVirtual(epoch)
	const n = 500
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		d := time.Duration(i%50+1) * time.Millisecond
		go func() {
			defer wg.Done()
			v.Sleep(d)
		}()
	}
	for v.PendingWaiters() < n {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	wg.Wait()
	if v.PendingWaiters() != 0 {
		t.Fatalf("%d waiters left after Advance", v.PendingWaiters())
	}
}

// AdvanceToNext advances the clock to the earliest pending waiter, releasing
// it, and reports whether a waiter existed. Only this package's tests step
// the clock one waiter at a time.
func (v *Virtual) AdvanceToNext() bool {
	v.mu.Lock()
	if v.waiters.Len() == 0 {
		v.mu.Unlock()
		return false
	}
	w := heap.Pop(&v.waiters).(*waiter)
	v.now = w.at
	w.ch <- v.now
	v.mu.Unlock()
	return true
}
