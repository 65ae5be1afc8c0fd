package wfq

import "testing"

func TestEmptyQueue(t *testing.T) {
	q := newQueue()
	if q.length != 0 {
		t.Fatalf("Len = %d, want 0", q.length)
	}
	if q.pop() != nil || q.peek() != nil {
		t.Fatal("Pop/Peek on empty queue should return nil")
	}
}

func TestFIFOWithinTenant(t *testing.T) {
	q := newQueue()
	for i := 0; i < 5; i++ {
		q.push(1, 1, 100, i)
	}
	for i := 0; i < 5; i++ {
		it := q.pop()
		if it == nil || it.Value.(int) != i {
			t.Fatalf("pop %d: got %v", i, it)
		}
	}
}

// TestWeightedShare drains a long busy period with two backlogged tenants
// at weights 3:1 and checks the served-cost ratio tracks the weights.
func TestWeightedShare(t *testing.T) {
	q := newQueue()
	const items = 300
	for i := 0; i < items; i++ {
		q.push(1, 3, 100, nil)
		q.push(2, 1, 100, nil)
	}
	served := map[uint64]float64{}
	// Serve the first half of the backlog; both tenants stay backlogged
	// throughout so the fair-share property applies cleanly.
	for i := 0; i < items; i++ {
		it := q.pop()
		served[it.Tenant] += it.Cost
	}
	ratio := served[1] / served[2]
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("served ratio = %.2f (t1=%v t2=%v), want ~3", ratio, served[1], served[2])
	}
}

// TestCostWeighting checks that a tenant sending big items gets the same
// byte share as a tenant sending many small ones.
func TestCostWeighting(t *testing.T) {
	q := newQueue()
	for i := 0; i < 40; i++ {
		q.push(1, 1, 1000, nil) // few big
	}
	for i := 0; i < 400; i++ {
		q.push(2, 1, 100, nil) // many small
	}
	served := map[uint64]float64{}
	for i := 0; i < 220; i++ { // drain half the total cost
		it := q.pop()
		served[it.Tenant] += it.Cost
	}
	ratio := served[1] / served[2]
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("byte-share ratio = %.2f, want ~1", ratio)
	}
}

// TestLateArrivalNotStarved: a tenant that goes idle and comes back must
// not be penalized for its idle time (start = max(vtime, lastVft)).
func TestLateArrivalNotStarved(t *testing.T) {
	q := newQueue()
	for i := 0; i < 100; i++ {
		q.push(1, 1, 100, nil)
	}
	for i := 0; i < 50; i++ {
		q.pop()
	}
	// Tenant 2 arrives late; its first item should be served almost
	// immediately, not after tenant 1's whole backlog.
	q.push(2, 1, 100, "late")
	var pos int
	for i := 0; ; i++ {
		it := q.pop()
		if it == nil {
			t.Fatal("queue drained without serving the late arrival")
		}
		if it.Tenant == 2 {
			pos = i
			break
		}
	}
	if pos > 2 {
		t.Fatalf("late arrival served at position %d, want <= 2", pos)
	}
}

func TestRemove(t *testing.T) {
	q := newQueue()
	a := q.push(1, 1, 100, "a")
	b := q.push(1, 1, 100, "b")
	q.push(2, 1, 100, "c")
	if !q.remove(b) {
		t.Fatal("Remove(b) = false")
	}
	if q.remove(b) {
		t.Fatal("double Remove(b) = true")
	}
	if q.length != 2 || q.tenantLen(1) != 1 {
		t.Fatalf("Len=%d TenantLen(1)=%d after remove", q.length, q.tenantLen(1))
	}
	seen := map[string]bool{}
	for it := q.pop(); it != nil; it = q.pop() {
		seen[it.Value.(string)] = true
	}
	if !seen["a"] || !seen["c"] || seen["b"] {
		t.Fatalf("drained %v, want a and c only", seen)
	}
	_ = a
}

func TestClampedWeightAndCost(t *testing.T) {
	q := newQueue()
	q.push(1, 0, -5, "x") // weight clamps to 1, cost to 0
	it := q.pop()
	if it == nil || it.Cost != 0 {
		t.Fatalf("got %+v, want cost 0", it)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	run := func() []uint64 {
		q := newQueue()
		for i := 0; i < 20; i++ {
			q.push(uint64(i%4), 1, 100, nil)
		}
		var order []uint64
		for it := q.pop(); it != nil; it = q.pop() {
			order = append(order, it.Tenant)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic pop order at %d: %v vs %v", i, a, b)
		}
	}
}
