package hw

// Frame windows. A Design absorbs a run of consecutive cycles in one
// step when all its modules will do on each of them is move the middle
// beats of frames they are already committed to. Modules state rates;
// the design solves the window from the streams' own occupancy
// (Stream.plan) and applies it as stream arithmetic (Stream.advance). A
// per-cycle Tick stays the specification: a window is the closed form of
// n Ticks, and every decision, and every transient no rule covers, runs
// as one. docs/testing.md has the table of rules and why each is exact.

// Rater is an optional Module extension: a module that can state, from
// its current state alone, what its next cycles look like. Rates is
// called on every module that has it (parked ones too: a collector is
// parked between beats) and declares per stream end the module owns a
// Push, Drain, Hold or Relay, plus a Horizon — for how many cycles that
// stays true — and whether the module is Busy throughout. What it leaves
// undeclared it promises not to touch. A module for which exactness
// cannot be shown does not implement Rater: it then forces per-cycle
// ticking while it is runnable, and only then.
type Rater interface {
	Module
	Rates(w *Window)
}

// What a module declared about one end of a stream.
const (
	endNone uint8 = iota
	endEmit
	endRelay
	endDrain
	endHold
)

// How a stream moves through the window solved from that.
const (
	still uint8 = iota
	pushOnly
	popOnly
	lockstep
)

// Window collects one attempt's declarations; see Rater.
type Window struct {
	bus     int
	n       int  // the bound so far
	at      int  // tick-order index of the module now declaring
	parked  bool // ... which is parked: idle until a push wakes it
	busy    bool // some module's Tick returns true on every cycle
	gen     uint32
	streams []*Stream // every stream a declaration named
}

// touch resets s's declarations on its first mention in this attempt.
func (w *Window) touch(s *Stream) {
	if s.wgen != w.gen {
		s.wgen, s.prod, s.cons = w.gen, endNone, endNone
		w.streams = append(w.streams, s)
	}
}

func (w *Window) produce(s *Stream, kind uint8) {
	w.touch(s)
	if s.prod != endNone {
		w.n = 1 // two producers interleave per cycle
	}
	s.prod, s.prodAt = kind, w.at
	w.busy = true // an emitter or a lock in progress is work in flight
}

func (w *Window) consume(s *Stream, kind uint8) {
	w.touch(s)
	if s.cons != endNone {
		w.n = 1
	}
	s.cons, s.consAt, s.consParked = kind, w.at, w.parked
}

// Horizon bounds the window to k cycles on the module's own account: a
// lookup result k cycles away, 1 for a decision next cycle. A stall only
// a foreign event ends needs none: no foreign event falls inside a window.
func (w *Window) Horizon(k int) {
	if k < w.n {
		w.n = k
	}
}

// Busy declares that the module's Tick returns true on every cycle of
// its horizon whatever the streams do (it holds a frame, a lookup is
// pending). Some module must be; Push and Relay imply it.
func (w *Window) Busy() { w.busy = true }

// Push declares one beat of e's frame pushed into s per cycle while s
// has space.
func (w *Window) Push(s *Stream, e *Emitter) {
	if e.frame == nil {
		return
	}
	w.produce(s, endEmit)
	s.emit = e
	if s.n < s.cap && len(e.frame.Data)-e.off <= minWindow*w.bus {
		w.n = 1 // the Last beat is too few pushes away
	}
}

// Drain declares one beat popped from s per cycle whenever s holds one,
// with nothing else following unless the beat is a Last.
func (w *Window) Drain(s *Stream) { w.consume(s, endDrain) }

// Hold declares that s, which the module consumes, is not popped.
func (w *Window) Hold(s *Stream) { w.consume(s, endHold) }

// Relay declares one beat moved from in to out per cycle whenever in
// holds one and out has space (a locked arbiter).
func (w *Window) Relay(in, out *Stream) {
	w.consume(in, endRelay)
	w.produce(out, endRelay)
	out.from = in
}

// plan solves one stream: it fixes how s moves through the window and
// folds the bound s imposes into n. Each rule is the condition under
// which n per-cycle Ticks do the same thing on every cycle.
func (s *Stream) plan(n, bus int) int {
	s.mode = still
	pops := s.cons == endDrain || s.cons == endRelay
	switch {
	case s.prod == endNone:
		if !pops {
			return n
		}
		if s.n == 0 {
			if s.cons == endRelay {
				return 1 // a locked relay with nothing to move: not solved
			}
			return n
		}
		// Only the consumer moves: stock before the first Last.
		if s.consParked {
			return 1
		}
		s.mode = popOnly
		return min(n, s.untilLast())
	case s.cons == endNone:
		return 1 // the consumer is parked or undeclared: a push wakes it
	case !pops:
		if s.n == s.cap {
			if s.prod == endRelay {
				return 1
			}
			return n // full and held: the producer stays blocked
		}
		// Only the producer moves: free space.
		s.mode = pushOnly
		n = min(n, s.cap-s.n)
	default:
		// Both move and occupancy is constant. A forward edge (producer
		// ticks first) needs a free slot and its consumer always finds a
		// beat; a feedback edge needs stock, and the pop frees the slot.
		// A full forward or empty feedback stream's first cycle is a
		// transient and runs as a Tick.
		s.forward = s.prodAt < s.consAt
		if s.forward && s.n == s.cap || !s.forward && (s.n == 0 || s.prodAt == s.consAt) {
			return 1
		}
		s.mode = lockstep
		if s.ends > 0 {
			n = min(n, s.untilLast())
		}
	}
	if s.consParked && !(s.mode == lockstep && s.forward && s.n == 0) {
		// A parked consumer is woken by each push and parks again once
		// its input is empty: only a forward edge it keeps empty leaves
		// it as parked after the window as it was before.
		return 1
	}
	if s.prod == endEmit {
		return min(n, s.emit.beatsLeft(bus)-1)
	}
	if s.from.prod == endRelay {
		return 1 // chained relays: not solved
	}
	return n
}

// untilLast counts the queued beats ahead of the first Last one.
func (s *Stream) untilLast() int {
	if s.ends == 0 {
		return s.n
	}
	i := 0
	for !s.buf[(s.head+i)&s.mask].Last {
		i++
	}
	return i
}

// incoming returns the i-th beat s's producer pushes in this window: the
// emitter's, or for a relay the i-th beat its source stream yields (its
// stock, then what the source's own emitter adds behind it).
func (s *Stream) incoming(i, bus int) Beat {
	if s.prod == endEmit {
		return s.emit.beat(i, bus)
	}
	f := s.from
	if i < f.n {
		return f.buf[(f.head+i)&f.mask]
	}
	return f.emit.beat(i-f.n, bus)
}

// advance applies n cycles of the planned mode in O(stock): the stock
// ends up as n per-cycle Ticks would have left it — the survivors of the
// old one, then the last of the beats pushed — and Pushed and the
// emitter move as they would have moved.
func (s *Stream) advance(n, bus int) {
	if s.mode == still {
		return
	}
	l := s.n
	if s.mode != pushOnly { // pop: n stocked non-Last beats, or all of them
		k := min(n, l)
		for i := 0; i < k; i++ {
			s.buf[(s.head+i)&s.mask] = Beat{}
		}
		s.head = (s.head + k) & s.mask
		s.n -= k
	}
	if s.mode == popOnly {
		return
	}
	final := l
	if s.mode == pushOnly {
		final = l + n
	}
	for i := s.n; i < final; i++ { // append the last final-s.n of the n beats pushed
		s.buf[(s.head+i)&s.mask] = s.incoming(n-final+i, bus)
	}
	s.n = final
	s.pushed += uint64(n)
	if s.prod == endEmit {
		s.emit.off += n * bus
	}
}
