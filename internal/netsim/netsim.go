// Package netsim simulates the constrained storage↔compute network of the
// paper's testbed: a token-bucket rate limiter (the 500 Mbps cap), net.Conn
// wrappers that shape traffic through a shared bucket, and an in-memory pipe
// listener so the full client/server stack can run without real sockets in
// tests.
package netsim

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// LinkBurst is the token-bucket burst, in bytes, of every shaped storage
// link (sophon-server's -mbps, cluster.Config.LinkMbps). A serial probe
// fetch leaves the link idle for its fixed cost, and the bucket banks that
// idle time only up to the burst: at 500 Mbps examples/adaptive's probe
// reads ≈ 62 of 62.5 MB/s with 256 KiB, and 36–45 MB/s with 32 KiB.
const LinkBurst = 256 << 10

// TokenBucket is a reservation-style rate limiter: waitN always succeeds
// immediately in bookkeeping terms and sleeps for however long the
// reservation overdraws the bucket. A shared bucket serializes the
// aggregate throughput of all its users, which is exactly how a capped
// physical link behaves.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	tokens float64 // may go negative while reservations drain
	burst  float64
	last   time.Time
	clock  simclock.Clock
}

// validRate reports whether bytesPerSec is a usable link rate: positive and
// finite (NaN fails every comparison, so it must be ruled out explicitly).
func validRate(bytesPerSec float64) bool {
	return bytesPerSec > 0 && !math.IsInf(bytesPerSec, 0)
}

// NewTokenBucket builds a limiter producing bytesPerSec tokens per second
// with the given burst allowance. A nil clock means the real clock.
func NewTokenBucket(bytesPerSec float64, burst int, clock simclock.Clock) (*TokenBucket, error) {
	if !validRate(bytesPerSec) {
		return nil, errors.New("netsim: rate must be positive and finite")
	}
	if burst < 0 {
		return nil, errors.New("netsim: burst must be non-negative")
	}
	if clock == nil {
		clock = simclock.Real()
	}
	return &TokenBucket{
		rate:   bytesPerSec,
		tokens: float64(burst),
		burst:  float64(burst),
		last:   clock.Now(),
		clock:  clock,
	}, nil
}

// SetRate retunes the bucket to a new bytes/second rate — a live link
// reshape. Accrual up to now is settled at the old rate; reservations made
// after the call drain at the new one.
func (tb *TokenBucket) SetRate(bytesPerSec float64) error {
	if !validRate(bytesPerSec) {
		return errors.New("netsim: rate must be positive and finite")
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.clock.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
	tb.rate = bytesPerSec
	return nil
}

// waitN reserves n tokens, sleeping for as long as the reservation
// overdraws the bucket, and returns how late that sleep woke. late is how
// late the writer's previous sleep woke: the bucket banks that time beyond
// its burst, for it was the host's oversleep, not idle link time. n <= 0
// returns immediately.
func (tb *TokenBucket) waitN(n int, late time.Duration) time.Duration {
	if n <= 0 {
		return 0
	}
	tb.mu.Lock()
	now := tb.clock.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if limit := tb.burst + late.Seconds()*tb.rate; tb.tokens > limit {
		tb.tokens = limit
	}
	tb.last = now
	tb.tokens -= float64(n)
	var wait time.Duration
	if tb.tokens < 0 {
		wait = time.Duration(-tb.tokens / tb.rate * float64(time.Second))
	}
	tb.mu.Unlock()
	if wait <= 0 {
		return 0
	}
	tb.clock.Sleep(wait)
	return max(tb.clock.Now().Sub(now)-wait, 0)
}

// shapeChunk bounds how many bytes a single reservation covers so
// concurrent connections sharing one bucket interleave fairly.
const shapeChunk = 32 << 10

// shapedConn wraps a net.Conn, charging every written byte against a token
// bucket. Reads are unshaped (the peer's writes are charged on its side, or
// by the same shared bucket when both ends wrap it).
type shapedConn struct {
	net.Conn
	bucket *TokenBucket
	late   atomic.Int64 // how late the last reservation's sleep woke, in ns
}

// shape wraps conn so writes drain bucket.
func shape(conn net.Conn, bucket *TokenBucket) *shapedConn {
	return &shapedConn{Conn: conn, bucket: bucket}
}

// Write charges the bucket in chunks before forwarding to the underlying
// connection.
func (c *shapedConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > shapeChunk {
			n = shapeChunk
		}
		c.late.Store(int64(c.bucket.waitN(n, time.Duration(c.late.Load()))))
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ShapedListener wraps every accepted connection with a shared bucket,
// modeling all clients contending for one capped link.
type ShapedListener struct {
	net.Listener
	bucket *TokenBucket
}

// ShapeListener builds a ShapedListener.
func ShapeListener(inner net.Listener, bucket *TokenBucket) *ShapedListener {
	return &ShapedListener{Listener: inner, bucket: bucket}
}

// Accept shapes the accepted connection.
func (l *ShapedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return shape(conn, l.bucket), nil
}

// PipeListener is an in-memory net.Listener: Dial creates a synchronous
// net.Pipe whose server half is delivered to Accept.
type PipeListener struct {
	conns  chan net.Conn
	done   chan struct{}
	closed sync.Once
}

// NewPipeListener returns a ready listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// errListenerClosed is returned by Accept and Dial after Close.
var errListenerClosed = errors.New("netsim: pipe listener closed")

// Accept waits for the next dialed connection.
func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, errListenerClosed
	}
}

// Dial creates a client connection to the listener.
func (l *PipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, errListenerClosed
	}
}

// Close stops the listener; it is safe to call multiple times.
func (l *PipeListener) Close() error {
	l.closed.Do(func() { close(l.done) })
	return nil
}

// Addr returns a synthetic address.
func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// Mbps converts megabits/second to bytes/second — the unit the paper uses
// for its 500 Mbps cap.
func Mbps(mbps float64) float64 { return mbps * 1e6 / 8 }
