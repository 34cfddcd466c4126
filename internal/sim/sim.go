package sim

// Sim is a discrete-event simulator. It is not safe for concurrent use;
// the entire simulation runs on the caller's goroutine. That confinement
// is what lets the fleet executor run many simulations in parallel: each
// Sim (and everything hanging off it — clocks, timers, device state) is
// owned by exactly one worker goroutine, and the package keeps no global
// mutable state whatsoever, so independent simulations never share
// memory.
type Sim struct {
	now    Time
	seq    uint64
	heap   []entry
	clocks []*Clock

	// firing is set while heap[0] is the vacated slot of a timer whose
	// callback is running (or panicked): the timer is logically out of
	// the queue — Pending, Peek, Stop and a re-entrant Step all answer
	// as if it had been removed — but its slot stays at the root so a
	// re-arm from the callback rewrites the key and sifts down once
	// instead of paying a remove and a push. The slot cannot be
	// displaced meanwhile: every key scheduled during the callback is
	// later in (time, sequence) order than the one that just fired.
	firing bool
	// sealed is set while mark holds a state Reset can restore.
	sealed bool
	// queued counts pending events that occupy no heap slot: lane
	// completions waiting behind their lane's head (see Lane). It sits
	// beside the flags to keep a Sim inside its allocation size class.
	queued int32
	// parked is the clock WakeAt parked, nil when none is (ScheduleAt).
	parked *Clock

	// horizon and fence are the active run's deadline and the
	// executed-event count at which its event budget is spent (Forever
	// and noFence outside a bounded run). They are the terms of the
	// advance bound that come from the run loop: a batching clock (see
	// inline and Clock.Bound) advances time past pending-event gaps but
	// never past the horizon, and stops inline execution at the fence,
	// so a bounded run lands on exactly the same event as unbatched
	// execution.
	horizon Time
	fence   uint64

	// Stopped reports how many events have executed; useful in tests and
	// for detecting runaway simulations.
	executed uint64

	// lanes are every Lane built on the simulator, and mark the state
	// Seal recorded (reset.go).
	lanes []laneReset
	mark  mark
}

// Forever is the end of simulated time: the deadline of a run that has
// none. noFence is its event-count counterpart.
const (
	Forever = Time(1<<63 - 1)
	noFence = ^uint64(0)
)

// New returns an empty simulator positioned at the epoch.
func New() *Sim { return &Sim{horizon: Forever, fence: noFence} }

// Now returns the current simulated time. Inside an event callback it is
// the event's scheduled time.
func (s *Sim) Now() Time { return s.now }

// Executed returns the number of events executed so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Timer is a schedulable one-shot event. A Timer may be re-armed from its
// own callback, which makes it suitable for persistent periodic work
// without per-event allocation.
type Timer struct {
	sim *Sim
	at  Time
	idx int // index in sim.heap, or -1 when not scheduled
	fn  func()
}

// NewTimer returns an unscheduled timer that runs fn when it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{sim: s, idx: -1, fn: fn}
}

// ScheduleAt arms the timer at absolute time at, rescheduling it if it is
// already pending. Scheduling in the past (before Now) panics: that would
// silently reorder causality.
func (t *Timer) ScheduleAt(at Time) {
	s := t.sim
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	t.arm(at, s.seq)
	if p := s.parked; p != nil && at == p.timer.at && s.now < p.woke && t != p.timer {
		// The parked edge stands for one a Wake at p.woke would arm,
		// after this event: it goes behind it.
		s.seq++
		p.timer.arm(at, s.seq)
	}
}

// arm queues the timer under the key (at, seq), replacing its current
// key if it is pending. A timer re-armed from its own callback still owns
// the root slot and is sifted down from there.
func (t *Timer) arm(at Time, seq uint64) {
	s := t.sim
	t.at = at
	e := entry{at: at, seq: seq, t: t}
	switch {
	case t.idx >= 0:
		s.fix(t.idx, e)
	case s.firing && s.heap[0].t == t:
		// The root slot already points at t: rewrite its key in place,
		// and sift only if a child now fires first.
		s.firing = false
		t.idx = 0
		h := s.heap
		h[0].at, h[0].seq = at, seq
		if len(h) > 1 {
			s.down(0, e)
		}
	default:
		s.heap = append(s.heap, e)
		s.up(len(s.heap)-1, e)
	}
}

// ScheduleAfter arms the timer d picoseconds from now.
func (t *Timer) ScheduleAfter(d Time) { t.ScheduleAt(t.sim.now + d) }

// Stop disarms the timer if pending. It reports whether the timer was
// pending.
func (t *Timer) Stop() bool {
	if t.idx < 0 {
		return false
	}
	t.sim.remove(t.idx)
	return true
}

// Pending reports whether the timer is currently scheduled.
func (t *Timer) Pending() bool { return t.idx >= 0 }

// At schedules fn to run at absolute time at and returns its timer.
func (s *Sim) At(at Time, fn func()) *Timer {
	t := s.NewTimer(fn)
	t.ScheduleAt(at)
	return t
}

// After schedules fn to run d picoseconds from now and returns its timer.
func (s *Sim) After(d Time, fn func()) *Timer { return s.At(s.now+d, fn) }

// Step executes the earliest pending event. It reports whether an event
// was executed (false means the queue is empty). A gateable clock's edge
// event may execute several consecutive edges inline (see Clock.edge),
// in which case Executed still advances once per edge, exactly as if
// each had been its own heap event. Outside a bounded Run such a batch
// ends only at another event, when the clock gates off or when its batch
// budget runs out, so a simulation with a busy clock is driven by Run,
// not by counting Steps.
func (s *Sim) Step() bool {
	if s.firing {
		// Re-entered from a callback, or called after one panicked: the
		// slot the callback left at the root is dead.
		s.firing = false
		s.remove(0)
	}
	if len(s.heap) == 0 {
		return false
	}
	// The root's slot stays vacated (see firing) until the callback
	// re-arms the timer or returns.
	t := s.heap[0].t
	s.now = s.heap[0].at
	s.executed++
	t.idx = -1
	s.firing = true
	t.fn()
	if s.firing { // not re-armed
		s.firing = false
		s.remove(0)
	}
	return true
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int {
	n := len(s.heap) + int(s.queued)
	if s.firing {
		n--
	}
	return n
}

// Peek returns the time of the earliest pending event. It reports false if
// no event is pending.
func (s *Sim) Peek() (Time, bool) {
	if at, ok := s.top(); ok {
		return at, true
	}
	return 0, false
}

// top is Peek with Forever, not 0, for an empty queue, so the clock's
// advance checks (inline, Clock.Bound) need one comparison.
func (s *Sim) top() (Time, bool) {
	h := s.heap
	if !s.firing {
		if len(h) == 0 {
			return Forever, false
		}
		return h[0].at, true
	}
	// The root is a firing timer's vacated slot; the earliest pending
	// event is one of its children.
	switch len(h) {
	case 1:
		return Forever, false
	case 2:
		return h[1].at, true
	}
	return min(h[1].at, h[2].at), true
}

// Run is the one run loop; every other way of running a simulation is
// a call of it. It executes events due at or before deadline, while more
// than floor events are pending, until eventBudget events have executed
// (0 = no bound; inline-batched clock edges count one each). It reports
// false when the budget stopped it, true when the work ran out first —
// and only then, unless deadline is Forever, is Now advanced to deadline.
//
// For the duration of the run the deadline and the budget are also what
// stop a batching clock (Sim.inline, Clock.Bound), and any event due
// before a clock's next edge ends its batch, so the run stops on the
// same event, at the same Now and Executed, whatever the clock batch and
// however a longer run is cut into budgets: a chain of Run calls toward one deadline executes the
// same events in the same order as a single unbudgeted one. A pause
// always falls between events, never inside one, so the simulation (and
// everything hanging off it) is quiescent at every pause.
//
// A budget that is spent exactly as the work runs out still reports
// false without advancing Now, and the next call completes the run, so
// a chain of budgeted calls never silently skips residual time. A run
// to Forever has no residual time and reports true.
//
// floor lets a caller that owns floor perpetual timers (periodic agents
// that re-arm themselves forever) treat "nothing but those is left" as
// the end of the work. It is checked between events, like everything
// else here.
func (s *Sim) Run(deadline Time, eventBudget uint64, floor int) bool {
	end := noFence
	if eventBudget != 0 && eventBudget < noFence-s.executed {
		end = s.executed + eventBudget
	}
	prevH, prevF := s.horizon, s.fence
	s.horizon, s.fence = min(prevH, deadline), min(prevF, end)
	for s.executed < end && s.Pending() > floor {
		if at, _ := s.Peek(); at > deadline { // something is pending: Peek's at is real
			break
		}
		s.Step()
	}
	s.horizon, s.fence = prevH, prevF
	spent := s.executed >= end
	if deadline == Forever {
		return !spent || s.Pending() <= floor
	}
	if !spent && s.now < deadline {
		s.now = deadline
	}
	return !spent
}

// RunUntil executes events with scheduled time <= deadline, then advances
// Now to deadline. Events scheduled by executed events are honoured if
// they fall within the deadline.
func (s *Sim) RunUntil(deadline Time) { s.Run(deadline, 0, 0) }

// RunFor runs the simulation for d picoseconds of simulated time.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }

// Drain executes events until the queue is empty or limit events have run
// (0 = no limit). It reports whether the queue was drained.
func (s *Sim) Drain(limit uint64) bool { return s.Run(Forever, limit, 0) }

// heap management: a binary min-heap of value entries ordered by
// (at, seq). seq breaks ties in scheduling order so same-timestamp events
// run FIFO, which keeps the simulation deterministic. Entries carry their
// key so sifts compare without dereferencing the timer, and a sift moves
// a hole to the entry's final position instead of swapping at each level.

type entry struct {
	at  Time
	seq uint64
	t   *Timer
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove deletes the entry at index i and marks its timer unscheduled.
func (s *Sim) remove(i int) {
	h := s.heap
	h[i].t.idx = -1
	last := len(h) - 1
	e := h[last]
	h[last] = entry{}
	s.heap = h[:last]
	if i != last {
		s.fix(i, e)
	}
}

// fix places e at index i, whose previous occupant is gone or re-keyed,
// and restores heap order.
func (s *Sim) fix(i int, e entry) {
	if i > 0 && e.before(&s.heap[(i-1)/2]) {
		s.up(i, e)
		return
	}
	s.down(i, e)
}

// up places e at or above the hole at index i.
func (s *Sim) up(i int, e entry) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].t.idx = i
		i = parent
	}
	h[i] = e
	e.t.idx = i
}

// down places e at or below the hole at index i.
func (s *Sim) down(i int, e entry) {
	h := s.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		h[i].t.idx = i
		i = c
	}
	h[i] = e
	e.t.idx = i
}
