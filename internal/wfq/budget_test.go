package wfq

import (
	"reflect"
	"testing"
)

// TestBudgetRules drives the admission rule through scripts of arrivals and
// releases. Each step names the verdict Admit must return, or, for a
// release, the queued requests it must grant, in order.
func TestBudgetRules(t *testing.T) {
	type step struct {
		// Arrival: tenant, weight, bytes, and the verdict expected.
		tenant uint64
		weight float64
		bytes  int64
		want   Verdict
		// Release (when release > 0): bytes handed back and the labels of the
		// requests granted, in order.
		release int64
		grants  []string
		// State after the step.
		inFlight int64
		queued   int
	}
	arrive := func(tenant uint64, weight float64, bytes int64, want Verdict, inFlight int64, queued int) step {
		return step{tenant: tenant, weight: weight, bytes: bytes, want: want, inFlight: inFlight, queued: queued}
	}
	release := func(bytes int64, inFlight int64, queued int, grants ...string) step {
		return step{release: bytes, grants: grants, inFlight: inFlight, queued: queued}
	}
	for _, tc := range []struct {
		name     string
		max      int64
		maxQueue int
		steps    []step
	}{
		{"fits until the budget is full, then queues", 100, 4, []step{
			arrive(1, 1, 60, Admitted, 60, 0),
			arrive(2, 1, 40, Admitted, 100, 0),
			arrive(1, 1, 1, Queued, 100, 1),
			release(60, 41, 0, "t1#2"),
		}},
		{"arrivals never overtake the queue", 100, 4, []step{
			arrive(1, 1, 90, Admitted, 90, 0),
			arrive(1, 1, 50, Queued, 90, 1),
			arrive(2, 1, 5, Queued, 90, 2), // would fit, but someone is waiting
			release(90, 55, 0, "t2#2", "t1#1"),
		}},
		{"oversize runs alone, one at a time", 10, 4, []step{
			arrive(1, 1, 1000, Admitted, 1000, 0), // idle: admitted though it can never fit
			arrive(1, 1, 1000, Queued, 1000, 1),
			arrive(1, 1, 1000, Queued, 1000, 2),
			arrive(2, 1, 1, Queued, 1000, 3), // cheapest, so first in fair order
			release(1000, 1, 2, "t2#3"),      // and nothing oversize fits beside it
			release(1, 1000, 1, "t1#1"),
			release(1000, 1000, 0, "t1#2"),
			release(1000, 0, 0),
		}},
		{"per-tenant bound sheds that tenant only", 10, 2, []step{
			arrive(1, 1, 10, Admitted, 10, 0),
			arrive(1, 1, 5, Queued, 10, 1),
			arrive(1, 1, 5, Queued, 10, 2),
			arrive(1, 1, 5, Shed, 10, 2),
			arrive(2, 1, 5, Queued, 10, 3),
			arrive(1, 1, 5, Shed, 10, 3),
		}},
		{"release drains in weighted-fair order while the head fits", 10, 8, []step{
			arrive(9, 1, 10, Admitted, 10, 0),
			arrive(1, 4, 4, Queued, 10, 1), // vft 1
			arrive(2, 1, 4, Queued, 10, 2), // vft 4
			arrive(1, 4, 4, Queued, 10, 3), // vft 2
			arrive(1, 4, 4, Queued, 10, 4), // vft 3
			release(10, 8, 2, "t1#1", "t1#3"),
			release(4, 8, 1, "t1#4"),
			release(4, 8, 0, "t2#2"),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBudget(tc.max, tc.maxQueue)
			for i, st := range tc.steps {
				if st.release > 0 {
					var got []string
					b.Release(st.release, func(it *Item) { got = append(got, it.Value.(string)) })
					if !reflect.DeepEqual(got, st.grants) {
						t.Fatalf("step %d: release granted %v, want %v", i, got, st.grants)
					}
				} else {
					verdict, item := b.Admit(st.tenant, st.weight, st.bytes)
					if verdict != st.want || (item != nil) != (verdict == Queued) {
						t.Fatalf("step %d: Admit = %v (item %v), want %v", i, verdict, item, st.want)
					}
					if item != nil {
						item.Value = "t" + string(rune('0'+st.tenant)) + "#" + string(rune('0'+i))
					}
				}
				if b.InFlight() != st.inFlight || b.Queued() != st.queued {
					t.Fatalf("step %d: in flight %d, queued %d; want %d, %d", i, b.InFlight(), b.Queued(), st.inFlight, st.queued)
				}
			}
		})
	}
}

// A cancelled waiter leaves the queue without touching the budget; once a
// release has granted it, Cancel reports that the charge is the caller's.
func TestBudgetCancel(t *testing.T) {
	b := NewBudget(10, 4)
	b.Admit(1, 1, 10)
	_, first := b.Admit(1, 1, 5)
	_, second := b.Admit(2, 1, 5)
	if !b.Cancel(first) || b.Queued() != 1 || b.InFlight() != 10 {
		t.Fatalf("cancel of a waiter: queued %d, in flight %d", b.Queued(), b.InFlight())
	}
	var granted []*Item
	b.Release(10, func(it *Item) { granted = append(granted, it) })
	if len(granted) != 1 || granted[0] != second || b.InFlight() != 5 {
		t.Fatalf("release granted %v, in flight %d", granted, b.InFlight())
	}
	if b.Cancel(second) {
		t.Fatal("Cancel reported a granted item as still waiting")
	}
}
