package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/simclock"
)

// ErrInjected marks every fault this package introduces; errors.Is(err,
// chaos.ErrInjected) distinguishes scripted chaos from organic failures in
// test assertions.
var ErrInjected = errors.New("chaos: injected fault")

// injectedErr ties a fired event to the typed sentinel.
func injectedErr(e Event) error {
	return fmt.Errorf("%w: %s at byte %d", ErrInjected, e.Kind, e.At)
}

// Conn wraps a net.Conn with a scripted fault schedule. Faults fire as the
// connection's cumulative traffic (reads plus writes) crosses each event's
// byte offset, so the same traffic pattern always hits the same faults:
//
//   - Delay/Stall pause the operation on the injected clock, then let it
//     proceed untouched.
//   - Corrupt flips one byte of the data in flight (the last byte of the
//     write, or of the bytes just read) — downstream the wire checksum must
//     turn this into a typed error, never a wrong decode.
//   - Close severs the link and fails the operation immediately.
//
// Writers in this repository frame one message per Write call, so a
// corrupted write flips a payload (or checksum) byte, not the length field;
// corrupted reads may land anywhere in a frame, which the transport must
// also survive — by timeout and teardown at worst.
type Conn struct {
	net.Conn
	clock   simclock.Clock
	stats   *Stats
	onClose func(net.Conn)

	mu     sync.Mutex
	events []Event
	pos    int64
	dead   bool
}

// WrapConn applies a schedule to conn. A nil clock means real time; stats
// may be nil; onClose (may be nil) runs once when the wrapper closes the
// underlying connection, however that happens.
func WrapConn(conn net.Conn, sched Schedule, clock simclock.Clock, stats *Stats, onClose func(net.Conn)) *Conn {
	if clock == nil {
		clock = simclock.Real()
	}
	events := append([]Event(nil), sched.Events...)
	return &Conn{Conn: conn, clock: clock, stats: stats, onClose: onClose, events: events}
}

// CloseAfter is the one-event schedule that lets budget bytes of traffic
// (reads plus writes) through and severs the connection on the operation
// that would carry it past them: that operation and every later one fail
// with ErrInjected.
func CloseAfter(budget int64) Schedule {
	return Schedule{Events: []Event{{At: budget + 1, Kind: KindClose}}}
}

// advance charges n bytes of traffic and pops every event the charge
// crosses, in offset order.
func (c *Conn) advance(n int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pos += int64(n)
	fired := 0
	for fired < len(c.events) && c.events[fired].At <= c.pos {
		fired++
	}
	out := c.events[:fired]
	c.events = c.events[fired:]
	return out
}

// kill severs the underlying connection once.
func (c *Conn) kill() {
	c.mu.Lock()
	dead := c.dead
	c.dead = true
	c.mu.Unlock()
	if !dead {
		c.Conn.Close()
		if c.onClose != nil {
			c.onClose(c.Conn)
		}
	}
}

// isDead reports whether a fault already severed the link.
func (c *Conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Write applies scheduled faults to the outgoing bytes, then forwards.
func (c *Conn) Write(p []byte) (int, error) {
	if c.isDead() {
		return 0, fmt.Errorf("%w: connection severed", ErrInjected)
	}
	payload := p
	for _, e := range c.advance(len(p)) {
		c.stats.count(e.Kind)
		switch e.Kind {
		case KindDelay, KindStall:
			c.clock.Sleep(e.Dur)
		case KindCorrupt:
			if len(payload) > 0 {
				// Copy before flipping: the caller's buffer is borrowed.
				corrupted := append([]byte(nil), payload...)
				corrupted[len(corrupted)-1] ^= 0x80
				payload = corrupted
			}
		case KindClose:
			c.kill()
			return 0, injectedErr(e)
		}
	}
	n, err := c.Conn.Write(payload)
	return n, err
}

// Read applies scheduled faults to the incoming bytes. Pauses and closes
// fire before the read; corruption flips the last byte actually read.
func (c *Conn) Read(p []byte) (int, error) {
	if c.isDead() {
		return 0, fmt.Errorf("%w: connection severed", ErrInjected)
	}
	n, err := c.Conn.Read(p)
	for _, e := range c.advance(n) {
		c.stats.count(e.Kind)
		switch e.Kind {
		case KindDelay, KindStall:
			c.clock.Sleep(e.Dur)
		case KindCorrupt:
			if n > 0 {
				p[n-1] ^= 0x80
			}
		case KindClose:
			c.kill()
			if err == nil {
				err = injectedErr(e)
			}
			return n, err
		}
	}
	return n, err
}

// Close forwards to the underlying connection (and deregisters from the
// listener when one is tracking this conn).
func (c *Conn) Close() error {
	c.kill()
	return nil
}
