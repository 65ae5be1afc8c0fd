package prepsched

// deque is one worker's class-aware work-stealing deque. It keeps a FIFO
// lane per class so stream order survives inside each class, and exposes the
// two ends asymmetrically:
//
//   - pop (the owner) takes from the HEAD, light lane first: the owner chews
//     through light samples in push order and only falls back to its own
//     heavy work when no light work remains — light flows around heavy.
//   - steal (an idle worker) takes from the TAIL, heavy lane first: a thief
//     relieves a backlogged owner of its most recently queued work, and
//     prefers to absorb a heavy sample — the long pole — so the owner keeps
//     draining its light lane in order.
//
// Invariants (property-tested in quick_test.go under randomized push/pop/
// steal interleavings):
//
//  1. Conservation: every pushed value is returned exactly once across pop
//     and steal — nothing lost, nothing duplicated.
//  2. Per-class order: the values the owner pops from a given lane come out
//     in push order (steals puncture a lane only at its tail, so they never
//     reorder what the owner still sees).
//  3. Tail-only steals: a successful steal returns the value that was the
//     most recently pushed of its lane at that moment.
//
// A deque has no lock of its own: Pool calls its methods only while holding
// Pool.mu, and any other user must serialize them the same way. The zero
// value is ready to use.
type deque[T any] struct {
	lanes [2]lane[T]
}

// lane is a slice-backed FIFO ring: head index advances on pop, the slice
// end is the tail. Compaction amortizes to O(1) per operation.
type lane[T any] struct {
	buf  []T
	head int
}

func (l *lane[T]) len() int { return len(l.buf) - l.head }

func (l *lane[T]) push(v T) {
	if l.head > 0 && l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
	}
	l.buf = append(l.buf, v)
}

func (l *lane[T]) popHead() (T, bool) {
	var zero T
	if l.len() == 0 {
		return zero, false
	}
	v := l.buf[l.head]
	l.buf[l.head] = zero
	l.head++
	if l.head >= 64 && l.head*2 >= len(l.buf) {
		n := copy(l.buf, l.buf[l.head:])
		for i := n; i < len(l.buf); i++ {
			l.buf[i] = zero
		}
		l.buf = l.buf[:n]
		l.head = 0
	}
	return v, true
}

func (l *lane[T]) popTail() (T, bool) {
	var zero T
	if l.len() == 0 {
		return zero, false
	}
	v := l.buf[len(l.buf)-1]
	l.buf[len(l.buf)-1] = zero
	l.buf = l.buf[:len(l.buf)-1]
	return v, true
}

// push appends v to the tail of its class's lane.
func (d *deque[T]) push(v T, c Class) {
	d.lanes[laneOf(c)].push(v)
}

// pop is the owner's take: head of the light lane, else head of the heavy
// lane. Returns false when the deque is empty.
func (d *deque[T]) pop() (T, Class, bool) {
	if v, ok := d.lanes[0].popHead(); ok {
		return v, Light, true
	}
	v, ok := d.lanes[1].popHead()
	return v, Heavy, ok
}

// steal is a thief's take: tail of the heavy lane, else tail of the light
// lane. Returns false when the deque is empty.
func (d *deque[T]) steal() (T, Class, bool) {
	if v, ok := d.lanes[1].popTail(); ok {
		return v, Heavy, true
	}
	v, ok := d.lanes[0].popTail()
	return v, Light, ok
}

func laneOf(c Class) int {
	if c == Heavy {
		return 1
	}
	return 0
}
