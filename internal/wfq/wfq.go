// Package wfq implements a virtual-time weighted fair queue (start-time
// fair queueing) over opaque per-tenant FIFOs.
//
// Each tenant owns a FIFO of items; every item carries a cost (typically
// bytes). When an item is pushed it is stamped with a virtual finish time
//
//	vft = max(globalVirtualTime, tenantLastVft) + cost/weight
//
// and Pop always returns the queued item with the smallest virtual finish
// time, ties broken by tenant id then arrival order. Over any busy interval
// each tenant therefore drains throughput proportional to its weight,
// independent of how bursty its arrivals are — the property the storage
// tier's admission controller needs so one greedy trainer cannot starve the
// rest of the fleet.
//
// The queue is not safe for concurrent use; callers hold their own lock.
package wfq

// Item is a queued entry. The zero Item is not meaningful; items are
// created by Push and handed back by Pop/Peek.
type Item struct {
	Tenant uint64
	Cost   float64
	// Value is the caller's payload (e.g. a waiter channel or request).
	Value any

	vft float64
	seq uint64
}

type tenantQueue struct {
	items   []*Item
	lastVft float64
	weight  float64
}

// Queue is a weighted fair queue across tenants.
type Queue struct {
	tenants map[uint64]*tenantQueue
	vtime   float64
	seq     uint64
	length  int
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{tenants: make(map[uint64]*tenantQueue)}
}

// Len reports the total number of queued items across all tenants.
func (q *Queue) Len() int { return q.length }

// TenantLen reports the number of queued items for one tenant.
func (q *Queue) TenantLen(tenant uint64) int {
	tq := q.tenants[tenant]
	if tq == nil {
		return 0
	}
	return len(tq.items)
}

// Push enqueues a value for tenant with the given weight and cost and
// returns the stamped item. Weight must be positive; zero or negative
// weights are clamped to 1 so a misconfigured tenant degrades to unit
// share instead of corrupting the virtual clock. Cost must be
// non-negative; a zero-cost item still serializes behind the tenant's
// earlier items.
func (q *Queue) Push(tenant uint64, weight, cost float64, value any) *Item {
	if weight <= 0 {
		weight = 1
	}
	if cost < 0 {
		cost = 0
	}
	tq := q.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{lastVft: q.vtime}
		q.tenants[tenant] = tq
	}
	tq.weight = weight
	start := q.vtime
	if tq.lastVft > start {
		start = tq.lastVft
	}
	it := &Item{
		Tenant: tenant,
		Cost:   cost,
		Value:  value,
		vft:    start + cost/weight,
		seq:    q.seq,
	}
	q.seq++
	tq.lastVft = it.vft
	tq.items = append(tq.items, it)
	q.length++
	return it
}

// head returns the tenant queue whose head item has the minimum virtual
// finish time, or nil if the queue is empty. Ties break by (vft, seq) so
// the order is fully deterministic.
func (q *Queue) head() *tenantQueue {
	var best *tenantQueue
	for _, tq := range q.tenants {
		if len(tq.items) == 0 {
			continue
		}
		if best == nil {
			best = tq
			continue
		}
		h, b := tq.items[0], best.items[0]
		if h.vft < b.vft || (h.vft == b.vft && h.seq < b.seq) {
			best = tq
		}
	}
	return best
}

// Peek returns the item Pop would return next without removing it, or nil
// if the queue is empty.
func (q *Queue) Peek() *Item {
	tq := q.head()
	if tq == nil {
		return nil
	}
	return tq.items[0]
}

// Pop removes and returns the item with the smallest virtual finish time,
// or nil if the queue is empty. The global virtual clock advances to the
// popped item's finish time (it never moves backwards).
func (q *Queue) Pop() *Item {
	tq := q.head()
	if tq == nil {
		return nil
	}
	it := tq.items[0]
	copy(tq.items, tq.items[1:])
	tq.items[len(tq.items)-1] = nil
	tq.items = tq.items[:len(tq.items)-1]
	q.length--
	if it.vft > q.vtime {
		q.vtime = it.vft
	}
	return it
}

// Remove unlinks a specific item (identified by pointer) from its tenant
// FIFO, returning true if it was found. Used to drop cancelled waiters
// without disturbing the rest of the queue; the virtual clock is left
// untouched so remaining stamps stay valid.
func (q *Queue) Remove(it *Item) bool {
	tq := q.tenants[it.Tenant]
	if tq == nil {
		return false
	}
	for i, cur := range tq.items {
		if cur == it {
			copy(tq.items[i:], tq.items[i+1:])
			tq.items[len(tq.items)-1] = nil
			tq.items = tq.items[:len(tq.items)-1]
			q.length--
			return true
		}
	}
	return false
}
