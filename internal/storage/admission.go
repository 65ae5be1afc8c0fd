package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wfq"
)

// ErrServerBusy is the sentinel every retry-after rejection matches via
// errors.Is: the server is shedding load and the request should be retried
// after the server's hint, on the same (healthy) session.
var ErrServerBusy = errors.New("storage: server shedding load")

// RetryAfterError is the typed client-side form of a wire.RetryAfter
// rejection. It matches ErrServerBusy with errors.Is.
type RetryAfterError struct {
	// Delay is the server's minimum backoff hint.
	Delay time.Duration
	// Queued is the server-side admission-queue depth at rejection time.
	Queued int
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("storage: server shedding load (retry after %v, %d queued)", e.Delay, e.Queued)
}

// Is reports that a RetryAfterError is an ErrServerBusy.
func (e *RetryAfterError) Is(target error) bool { return target == ErrServerBusy }

// Admission defaults.
const (
	// DefaultAdmissionQueue bounds each tenant's admission queue when
	// AdmissionConfig.MaxQueuePerTenant is zero.
	DefaultAdmissionQueue = 256
	// DefaultRetryAfterHint is the backoff hint sent with rejections when
	// AdmissionConfig.RetryAfter is zero.
	DefaultRetryAfterHint = 50 * time.Millisecond
)

// AdmissionConfig configures an AdmissionController.
type AdmissionConfig struct {
	// MaxInFlightBytes is the global in-flight byte budget across every
	// connection (and every server sharing the controller). Required > 0.
	MaxInFlightBytes int64
	// MaxQueuePerTenant bounds each tenant's admission queue; requests
	// beyond the bound are rejected with a retry-after instead of queueing
	// (0 → DefaultAdmissionQueue).
	MaxQueuePerTenant int
	// RetryAfter is the backoff hint carried by rejections
	// (0 → DefaultRetryAfterHint).
	RetryAfter time.Duration
}

// AdmissionStats is a point-in-time controller snapshot for /stats.
type AdmissionStats struct {
	MaxInFlightBytes int64  `json:"max_in_flight_bytes"`
	InFlightBytes    int64  `json:"in_flight_bytes"`
	QueueDepth       int    `json:"queue_depth"`
	Admitted         uint64 `json:"admitted"`
	Queued           uint64 `json:"queued"`
	Shed             uint64 `json:"shed"`
	RetryAfterMillis int64  `json:"retry_after_ms"`
}

// AdmissionController is the storage tier's global admission gate: beyond
// the per-connection MaxInFlight semaphore, it bounds the total bytes in
// flight across ALL connections (and across every server sharing the
// controller — cluster.Launch threads one controller through all shards),
// queues excess requests per tenant in fair order, and sheds load
// with retry-after rejections once a tenant's queue is full. Shedding keeps
// tail latency bounded under open-loop overload: the alternative —
// unbounded queueing — takes p99 to the queue length.
//
// The rule itself — what fits, who queues, who is shed, who is granted next
// — is wfq.Budget, the same accounting the load harness's tier model runs
// on virtual time; the controller adds the lock, the blocking and the
// counters.
type AdmissionController struct {
	maxBytes   int64
	retryAfter time.Duration

	mu     sync.Mutex
	budget *wfq.Budget // a queued Item.Value is a chan struct{}, closed on grant

	admitted atomic.Uint64
	queuedN  atomic.Uint64
	shed     atomic.Uint64
}

// NewAdmissionController validates cfg and builds a controller.
func NewAdmissionController(cfg AdmissionConfig) (*AdmissionController, error) {
	if cfg.MaxInFlightBytes <= 0 {
		return nil, errors.New("storage: admission needs MaxInFlightBytes > 0")
	}
	if cfg.MaxQueuePerTenant < 0 {
		return nil, errors.New("storage: negative admission queue bound")
	}
	if cfg.RetryAfter < 0 {
		return nil, errors.New("storage: negative retry-after hint")
	}
	if cfg.MaxQueuePerTenant == 0 {
		cfg.MaxQueuePerTenant = DefaultAdmissionQueue
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfterHint
	}
	return &AdmissionController{
		maxBytes:   cfg.MaxInFlightBytes,
		retryAfter: cfg.RetryAfter,
		budget:     wfq.NewBudget(cfg.MaxInFlightBytes, cfg.MaxQueuePerTenant),
	}, nil
}

// RetryAfterHint returns the backoff hint rejections carry.
func (c *AdmissionController) RetryAfterHint() time.Duration { return c.retryAfter }

// Acquire admits bytes of work for tenant, blocking in the tenant's
// weighted queue while the global budget is exhausted. It returns a release
// function the caller MUST run when the work completes. If the tenant's
// queue is full the request is shed immediately with a *RetryAfterError
// (matching ErrServerBusy); if cancel closes while queued, Acquire returns
// ErrClientClosed.
//
// A request larger than the whole budget is still admitted once the
// controller is otherwise idle — oversized work degrades to serial
// execution instead of deadlocking.
func (c *AdmissionController) Acquire(tenant uint64, bytes int64, cancel <-chan struct{}) (func(), error) {
	if bytes < 1 {
		bytes = 1
	}
	c.mu.Lock()
	verdict, item := c.budget.Admit(tenant, 1, bytes) // every tenant weighs the same
	switch verdict {
	case wfq.Admitted:
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(bytes), nil
	case wfq.Shed:
		depth := c.budget.Queued()
		c.mu.Unlock()
		c.shed.Add(1)
		return nil, &RetryAfterError{Delay: c.retryAfter, Queued: depth}
	}
	grant := make(chan struct{})
	item.Value = grant
	c.mu.Unlock()
	c.queuedN.Add(1)

	select {
	case <-grant:
		c.admitted.Add(1)
		return c.releaseFunc(bytes), nil
	case <-cancel:
		c.mu.Lock()
		removed := c.budget.Cancel(item)
		c.mu.Unlock()
		if !removed {
			// The grant raced the cancellation: the budget was already
			// charged, so give it straight back.
			<-grant
			c.releaseFunc(bytes)()
		}
		return nil, ErrClientClosed
	}
}

// releaseFunc returns the (idempotent-unsafe, call-once) release closure
// for an admitted request. Waiters it wakes were charged by the budget
// before they resume, so a snapshot never undercounts in-flight bytes.
func (c *AdmissionController) releaseFunc(bytes int64) func() {
	return func() {
		c.mu.Lock()
		c.budget.Release(bytes, func(it *wfq.Item) { close(it.Value.(chan struct{})) })
		c.mu.Unlock()
	}
}

// Stats snapshots the controller's counters.
func (c *AdmissionController) Stats() AdmissionStats {
	c.mu.Lock()
	inFlight := c.budget.InFlight()
	depth := c.budget.Queued()
	c.mu.Unlock()
	return AdmissionStats{
		MaxInFlightBytes: c.maxBytes,
		InFlightBytes:    inFlight,
		QueueDepth:       depth,
		Admitted:         c.admitted.Load(),
		Queued:           c.queuedN.Load(),
		Shed:             c.shed.Load(),
		RetryAfterMillis: c.retryAfter.Milliseconds(),
	}
}
