package wfq

// Budget is the storage tier's admission accounting: a byte budget of work
// in flight, a weighted fair queue of the requests that did not fit, and a
// per-tenant bound on that queue past which requests are shed. It is the
// whole admission rule — what fits, who waits, who is refused, who goes next
// — as plain state with no clock and no blocking, so the live server
// (storage.AdmissionController, which adds a mutex and grant channels) and
// the load harness's model of it (internal/loadgen, on virtual time) run the
// same code. Like queue it is not safe for concurrent use.
type Budget struct {
	maxBytes int64
	maxQueue int
	inFlight int64
	queue    *queue
}

// Verdict is Admit's answer.
type Verdict int

const (
	// Admitted: the bytes are charged; the caller runs the work and then
	// calls Release.
	Admitted Verdict = iota
	// Queued: the request waits in its tenant's FIFO; a later Release
	// charges it and hands it to that call's grant function.
	Queued
	// Shed: the tenant's queue is full; nothing was charged or queued.
	Shed
)

// NewBudget returns an idle budget of maxBytes in flight with at most
// maxQueuePerTenant waiting requests per tenant. Both must be positive.
func NewBudget(maxBytes int64, maxQueuePerTenant int) *Budget {
	return &Budget{maxBytes: maxBytes, maxQueue: maxQueuePerTenant, queue: newQueue()}
}

// fits reports whether bytes can go in flight now. A request larger than
// the whole budget fits an idle budget: oversized work runs alone instead
// of waiting for room that can never exist.
func (b *Budget) fits(bytes int64) bool {
	return b.inFlight == 0 || b.inFlight+bytes <= b.maxBytes
}

// Admit asks to put bytes of tenant's work in flight. The request is
// admitted at once when it fits and nobody is waiting (arrivals never
// overtake the queue); otherwise it joins the tenant's queue at weight,
// unless that queue is at its bound, in which case it is shed. On Queued
// the stamped item is returned for the caller to attach its payload
// (Item.Value) to and to Cancel by.
func (b *Budget) Admit(tenant uint64, weight float64, bytes int64) (Verdict, *Item) {
	if b.fits(bytes) && b.queue.length == 0 {
		b.inFlight += bytes
		return Admitted, nil
	}
	if b.queue.tenantLen(tenant) >= b.maxQueue {
		return Shed, nil
	}
	return Queued, b.queue.push(tenant, weight, float64(bytes), nil)
}

// Release returns bytes of finished work to the budget, then admits waiting
// requests in weighted-fair order for as long as the next one fits,
// charging each before handing it to grant — so InFlight never undercounts
// work a grant has already started.
func (b *Budget) Release(bytes int64, grant func(*Item)) {
	b.inFlight -= bytes
	for it := b.queue.peek(); it != nil && b.fits(int64(it.Cost)); it = b.queue.peek() {
		b.queue.pop()
		b.inFlight += int64(it.Cost)
		grant(it)
	}
}

// Cancel withdraws a queued item. It reports false when the item is no
// longer waiting: a Release already charged and granted it, and the caller
// owns that charge.
func (b *Budget) Cancel(it *Item) bool { return b.queue.remove(it) }

// InFlight reports the bytes currently charged.
func (b *Budget) InFlight() int64 { return b.inFlight }

// Queued reports how many requests are waiting, across all tenants.
func (b *Budget) Queued() int { return b.queue.length }
