package chaos

import (
	"net"
	"sync"

	"repro/internal/simclock"
)

// Listener wraps an accept loop so every accepted connection runs under a
// fault schedule drawn from a Source, and the whole endpoint can be
// partitioned — reversibly severed from the network — at runtime. Partition
// differs from killing a server: the process stays healthy and already-
// accepted requests may still compute; only the network is gone, and
// healing it restores service without a restart.
type Listener struct {
	net.Listener
	src   *Source
	clock simclock.Clock

	mu          sync.Mutex
	partitioned bool
	conns       map[net.Conn]struct{}
}

// WrapListener applies src's schedules to every connection accepted from
// inner. A nil clock means real time.
func WrapListener(inner net.Listener, src *Source, clock simclock.Clock) *Listener {
	if clock == nil {
		clock = simclock.Real()
	}
	return &Listener{Listener: inner, src: src, clock: clock, conns: make(map[net.Conn]struct{})}
}

// Source returns the listener's schedule source (for fault counters).
func (l *Listener) Source() *Source { return l.src }

// Accept wraps the next connection with its scheduled faults. While
// partitioned, accepted connections are severed immediately — the dialing
// peer sees a link that dies before the handshake, exactly like a network
// partition around a live server.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.partitioned {
		l.mu.Unlock()
		conn.Close()
		return conn, nil // already dead; the server's handshake read fails fast
	}
	wrapped := WrapConn(conn, l.src.next(), l.clock, l.src.Stats(), l.forget)
	l.conns[wrapped.Conn] = struct{}{}
	l.mu.Unlock()
	return wrapped, nil
}

// forget drops a closed connection from the partition-kill set.
func (l *Listener) forget(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// Partition severs (on=true) or heals (on=false) the endpoint. Severing
// closes every live connection and makes new ones die at accept; healing
// lets subsequent dials through untouched. Idempotent in both directions.
func (l *Listener) Partition(on bool) {
	l.mu.Lock()
	l.partitioned = on
	var victims []net.Conn
	if on {
		for c := range l.conns {
			victims = append(victims, c)
		}
		l.conns = make(map[net.Conn]struct{})
	}
	l.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}
