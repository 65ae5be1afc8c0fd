package prepsched

import (
	"testing"
	"testing/quick"
)

// The deque's documented invariants, property-tested against a shadow model
// under randomized push/pop/steal interleavings generated by testing/quick.
// The shadow model is two plain slices (one per lane); each random op is
// applied to both the real deque and the shadow, and every take is checked
// against the position the shadow says it must come from.

// shadowLanes mirrors the deque's per-class lanes with explicit slices.
type shadowLanes struct {
	lane [2][]int
}

func (s *shadowLanes) push(v int, c Class) {
	s.lane[laneOf(c)] = append(s.lane[laneOf(c)], v)
}

// pop mirrors owner order: light head first, else heavy head.
func (s *shadowLanes) pop() (int, Class, bool) {
	for i, cl := range []Class{Light, Heavy} {
		if len(s.lane[i]) > 0 {
			v := s.lane[i][0]
			s.lane[i] = s.lane[i][1:]
			return v, cl, true
		}
	}
	return 0, Light, false
}

// steal mirrors thief order: heavy tail first, else light tail.
func (s *shadowLanes) steal() (int, Class, bool) {
	for _, i := range []int{1, 0} {
		if n := len(s.lane[i]); n > 0 {
			v := s.lane[i][n-1]
			s.lane[i] = s.lane[i][:n-1]
			return v, Class(i), true
		}
	}
	return 0, Light, false
}

func (s *shadowLanes) len() int { return len(s.lane[0]) + len(s.lane[1]) }

// opKind decodes one random byte into push-light / push-heavy / pop / steal.
func opKind(b byte) int { return int(b) % 4 }

// TestDequeMatchesShadowModel drives the deque and the shadow through the
// same random op sequence and demands identical results at every step: same
// values, same classes, same emptiness. Matching the shadow at every step
// implies all three documented invariants at once — conservation (the shadow
// conserves trivially), per-class owner FIFO (the shadow pops lane heads),
// and tail-only steals (the shadow steals lane tails).
func TestDequeMatchesShadowModel(t *testing.T) {
	next := 0
	f := func(ops []byte) bool {
		var d deque[int]
		var s shadowLanes
		for _, b := range ops {
			switch opKind(b) {
			case 0, 1:
				c := Light
				if opKind(b) == 1 {
					c = Heavy
				}
				next++
				d.push(next, c)
				s.push(next, c)
			case 2:
				gv, gc, gok := d.pop()
				wv, wc, wok := s.pop()
				if gok != wok || gv != wv || (gok && gc != wc) {
					t.Logf("pop mismatch: got (%d,%v,%v) want (%d,%v,%v)", gv, gc, gok, wv, wc, wok)
					return false
				}
			case 3:
				gv, gc, gok := d.steal()
				wv, wc, wok := s.steal()
				if gok != wok || gv != wv || (gok && gc != wc) {
					t.Logf("steal mismatch: got (%d,%v,%v) want (%d,%v,%v)", gv, gc, gok, wv, wc, wok)
					return false
				}
			}
		}
		return d.lanes[0].len()+d.lanes[1].len() == s.len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDequeConservation drains the deque after a random op sequence and
// checks the multiset identity directly: every pushed value comes back
// exactly once across pops, steals, and the final drain — no sample lost,
// none duplicated.
func TestDequeConservation(t *testing.T) {
	f := func(ops []byte) bool {
		var d deque[int]
		pushed := 0
		seen := map[int]int{}
		take := func(v int, ok bool) {
			if ok {
				seen[v]++
			}
		}
		for _, b := range ops {
			switch opKind(b) {
			case 0, 1:
				pushed++
				c := Light
				if opKind(b) == 1 {
					c = Heavy
				}
				d.push(pushed, c)
			case 2:
				v, _, ok := d.pop()
				take(v, ok)
			case 3:
				v, _, ok := d.steal()
				take(v, ok)
			}
		}
		for {
			v, _, ok := d.pop()
			if !ok {
				break
			}
			seen[v]++
		}
		if len(seen) != pushed {
			return false
		}
		for v, n := range seen {
			if n != 1 || v < 1 || v > pushed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDequePerClassOwnerOrder checks the owner-side ordering invariant in
// isolation: across a random interleaving, the values the owner pops from a
// given lane arrive in strictly increasing push order for that lane, even
// with steals punching holes at the tail.
func TestDequePerClassOwnerOrder(t *testing.T) {
	f := func(ops []byte) bool {
		var d deque[int]
		nextID := 0
		lastPopped := map[Class]int{}
		for _, b := range ops {
			switch opKind(b) {
			case 0, 1:
				c := Light
				if opKind(b) == 1 {
					c = Heavy
				}
				nextID++
				d.push(nextID, c)
			case 2:
				if v, c, ok := d.pop(); ok {
					if v <= lastPopped[c] {
						return false
					}
					lastPopped[c] = v
				}
			case 3:
				d.steal()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDequeStealsFromTail checks the thief-side invariant in isolation: a
// successful steal returns exactly the value at its lane's tail — the most
// recently pushed, not-yet-taken value of that class.
func TestDequeStealsFromTail(t *testing.T) {
	f := func(ops []byte) bool {
		var d deque[int]
		var s shadowLanes
		nextID := 0
		for _, b := range ops {
			switch opKind(b) {
			case 0, 1:
				c := Light
				if opKind(b) == 1 {
					c = Heavy
				}
				nextID++
				d.push(nextID, c)
				s.push(nextID, c)
			case 2:
				if _, _, ok := d.pop(); ok {
					s.pop()
				}
			case 3:
				v, c, ok := d.steal()
				if !ok {
					if s.len() != 0 {
						return false
					}
					continue
				}
				li := laneOf(c)
				if n := len(s.lane[li]); n == 0 || s.lane[li][n-1] != v {
					return false
				}
				s.steal()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
