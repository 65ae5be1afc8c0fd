// Package chaos is the repository's one fault-injection subsystem for the
// storage fabric: a deterministic, seed-driven fault plan of per-connection
// delay, stall, payload corruption, and abrupt close, plus
// per-shard partition and slow-shard profiles, all scheduled from a single
// seeded RNG so any failing run reproduces exactly from its seed. The
// simplest plan is one event, CloseAfter: a link that dies after a byte
// budget.
//
// The determinism contract is layered:
//
//   - A Schedule is a pure function of (seed, stream, connection index): the
//     same seed always expands to the same per-connection event lists, byte
//     offset by byte offset. Digest pins this.
//   - Within a connection, events fire at fixed cumulative byte offsets, so
//     a given traffic pattern always hits the same faults.
//   - Across goroutines the *interleaving* of connections is still up to the
//     scheduler — so end-to-end suites assert interleaving-independent
//     invariants (bit-identical artifacts, exact failure accounting, no
//     goroutine leaks) rather than event-for-event transcripts.
package chaos

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an injected fault.
type Kind uint8

// Fault classes. Delay and Stall pause an operation and let it proceed;
// Corrupt flips a byte so the wire checksum must catch it; Close fails the
// operation outright and severs the link. The values are part of every
// Plan.Digest (and break ties in a schedule), so they never move.
const (
	KindDelay Kind = iota + 1
	KindStall
	_ // 3 is retired
	KindCorrupt
	KindClose
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case KindDelay:
		return "delay"
	case KindStall:
		return "stall"
	case KindCorrupt:
		return "corrupt"
	case KindClose:
		return "close"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault: it fires when the connection's cumulative
// traffic (reads plus writes) reaches At bytes.
type Event struct {
	At   int64
	Kind Kind
	Dur  time.Duration // pause length for Delay/Stall; ignored otherwise
}

// Schedule is a connection's fault script, sorted by byte offset, at most
// maxEvents long. Events beyond a Close are unreachable (the link is dead)
// and are pruned at generation time.
type Schedule struct {
	Events []Event
}

// Profile describes a fault mix as mean byte gaps between events of each
// class. A zero field disables its class; the zero Profile injects nothing.
// Gaps are drawn uniformly from [1, 2·mean), so the configured value is the
// expected spacing while the exact offsets stay seed-determined.
type Profile struct {
	// DelayEvery is the mean bytes between short pauses of Delay each.
	DelayEvery int64
	Delay      time.Duration
	// StallEvery is the mean bytes between long pauses of Stall each — the
	// tail-latency fault class from the data-stall literature.
	StallEvery int64
	Stall      time.Duration
	// CorruptEvery is the mean bytes between single-byte payload flips.
	CorruptEvery int64
	// CloseAfter is the mean bytes until the link abruptly closes (at most
	// one per connection).
	CloseAfter int64
}

// maxEvents bounds a connection's script, and each class's draws within it.
const maxEvents = 64

// Zero reports whether the profile injects no faults at all.
func (p Profile) Zero() bool {
	return p.DelayEvery == 0 && p.StallEvery == 0 && p.CorruptEvery == 0 &&
		p.CloseAfter == 0
}

// Stats counts injected faults by class, shared by every connection of a
// Source. Counters are atomic; read them with the Snapshot method.
type Stats struct {
	Delays   atomic.Int64
	Stalls   atomic.Int64
	Corrupts atomic.Int64
	Closes   atomic.Int64
}

// StatsSnapshot is a point-in-time copy of a Stats.
type StatsSnapshot struct {
	Delays   int64 `json:"delays"`
	Stalls   int64 `json:"stalls"`
	Corrupts int64 `json:"corrupts"`
	Closes   int64 `json:"closes"`
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Delays:   s.Delays.Load(),
		Stalls:   s.Stalls.Load(),
		Corrupts: s.Corrupts.Load(),
		Closes:   s.Closes.Load(),
	}
}

// count bumps the counter for kind.
func (s *Stats) count(k Kind) {
	if s == nil {
		return
	}
	switch k {
	case KindDelay:
		s.Delays.Add(1)
	case KindStall:
		s.Stalls.Add(1)
	case KindCorrupt:
		s.Corrupts.Add(1)
	case KindClose:
		s.Closes.Add(1)
	}
}

// Source hands out per-connection schedules for one fault stream (typically
// one shard). Connection i's schedule is a pure function of (seed, stream,
// i), so a run reproduces exactly from its seed regardless of when the
// connections are dialed.
type Source struct {
	seed    uint64
	stream  uint64
	profile Profile
	stats   *Stats

	mu    sync.Mutex
	conns uint64
}

// NewSource builds a schedule source for the given seed and stream index.
func NewSource(seed, stream uint64, p Profile) *Source {
	return &Source{seed: seed, stream: stream, profile: p, stats: &Stats{}}
}

// Stats returns the shared fault counters of every connection the source
// has scheduled.
func (s *Source) Stats() *Stats { return s.stats }

// Next returns the schedule for the next accepted connection, advancing the
// connection counter.
func (s *Source) Next() Schedule {
	s.mu.Lock()
	i := s.conns
	s.conns++
	s.mu.Unlock()
	return s.ScheduleFor(i)
}

// ScheduleFor expands connection conn's schedule without advancing the
// counter — the pure function behind Next, exposed so reproduction tooling
// can print the exact script a failing connection ran.
func (s *Source) ScheduleFor(conn uint64) Schedule {
	return expand(s.seed, s.stream, conn, s.profile)
}

// expand derives connection conn's event list from the seeded RNG. Events
// of each enabled class are laid out independently along the byte axis, the
// union is sorted, ties break by class order, and everything after the
// first link-severing event is pruned.
func expand(seed, stream, conn uint64, p Profile) Schedule {
	if p.Zero() {
		return Schedule{}
	}
	rng := rand.New(rand.NewPCG(seed, stream<<32^conn))
	var events []Event
	gap := func(mean int64) int64 { return 1 + rng.Int64N(2*mean) }
	// Each class draws against its own budget so a dense class (frequent
	// delays) cannot starve a sparse one (an eventual close) out of the
	// schedule; the union is capped after the merge.
	class := func(mean int64, k Kind, d time.Duration, repeat bool) {
		if mean <= 0 {
			return
		}
		at := int64(0)
		for n := 0; n < maxEvents; n++ {
			at += gap(mean)
			events = append(events, Event{At: at, Kind: k, Dur: d})
			if !repeat {
				return
			}
		}
	}
	class(p.DelayEvery, KindDelay, p.Delay, true)
	class(p.StallEvery, KindStall, p.Stall, true)
	class(p.CorruptEvery, KindCorrupt, 0, true)
	class(p.CloseAfter, KindClose, 0, false)
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Kind < events[j].Kind
	})
	for i, e := range events {
		if e.Kind == KindClose {
			events = events[:i+1]
			break
		}
	}
	// Cap the union; a sever scheduled past the cap does not fire.
	if len(events) > maxEvents {
		events = events[:maxEvents]
	}
	return Schedule{Events: events}
}

// Plan is a cluster-wide chaos plan: one fault profile per shard, all
// expanded from a single seed. Shards beyond the profile list run
// fault-free, so a plan can target one shard without naming the rest.
type Plan struct {
	Seed   uint64
	Shards []Profile
}

// Profile returns shard s's fault mix (zero when the plan doesn't cover s).
func (p *Plan) Profile(s int) Profile {
	if p == nil || s < 0 || s >= len(p.Shards) {
		return Profile{}
	}
	return p.Shards[s]
}

// Source builds shard s's schedule source.
func (p *Plan) Source(s int) *Source {
	return NewSource(p.Seed, uint64(s), p.Profile(s))
}

// Digest fingerprints the plan's expanded fault schedule — the first conns
// connections of every shard — as a CRC32-C. Two runs with the same seed
// produce the same digest; a drifted schedule generator changes it, so soak
// reports carry it as the reproducibility witness.
func (p *Plan) Digest(conns uint64) uint32 {
	if p == nil {
		return 0
	}
	tbl := crc32.MakeTable(crc32.Castagnoli)
	var buf [8]byte
	le := func(crc uint32, v uint64) uint32 {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		return crc32.Update(crc, tbl, buf[:])
	}
	crc := le(0, p.Seed)
	for s := range p.Shards {
		src := p.Source(s)
		for c := uint64(0); c < conns; c++ {
			for _, e := range src.ScheduleFor(c).Events {
				crc = le(crc, uint64(e.At))
				crc = le(crc, uint64(e.Kind))
				crc = le(crc, uint64(e.Dur))
			}
			crc = le(crc, ^uint64(0)) // connection separator
		}
	}
	return crc
}
