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
	heap   []*Timer
	clocks []*Clock

	// horizon fences inline time advancement: a batching clock (see
	// Clock.edge) may advance now past pending-event gaps but never past
	// the horizon, so RunUntil's deadline semantics survive batching.
	horizon Time
	// fence, when non-zero, is the executed-event count at which inline
	// batching must stop, so event-budgeted stepping (StepBudget, Drain
	// with a limit) lands on exactly the same event as unbatched
	// execution.
	fence uint64

	// Stopped reports how many events have executed; useful in tests and
	// for detecting runaway simulations.
	executed uint64
}

// maxTime is the end of simulated time; the horizon when no run deadline
// is active.
const maxTime = Time(1<<63 - 1)

// New returns an empty simulator positioned at the epoch.
func New() *Sim { return &Sim{horizon: maxTime} }

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
	seq uint64
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
	t.at = at
	s.seq++
	t.seq = s.seq
	if t.idx >= 0 {
		s.fix(t.idx)
		return
	}
	s.push(t)
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

// When returns the time the timer is scheduled for; meaningful only while
// Pending.
func (t *Timer) When() Time { return t.at }

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
// event may execute several consecutive edges inline (see Clock.edge), in
// which case Executed still advances once per edge, exactly as if each
// edge had been its own heap event.
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	t := s.heap[0]
	s.remove(0)
	s.now = t.at
	s.executed++
	t.fn()
	return true
}

// StepBudget executes the earliest pending event provided it is due at or
// before deadline, allowing at most maxEvents executed events during the
// step (inline-batched clock edges included; 0 means unlimited). It
// reports whether an event was executed. Event-budgeted drivers use it so
// their stopping point is independent of clock batch sizes.
func (s *Sim) StepBudget(deadline Time, maxEvents uint64) bool {
	if len(s.heap) == 0 || s.heap[0].at > deadline {
		return false
	}
	prevH, prevF := s.horizon, s.fence
	if deadline < s.horizon {
		s.horizon = deadline
	}
	if f := s.executed + maxEvents; maxEvents != 0 && (s.fence == 0 || f < s.fence) {
		s.fence = f
	}
	s.Step()
	s.horizon, s.fence = prevH, prevF
	return true
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.heap) }

// Peek returns the time of the earliest pending event. It reports false if
// no event is pending.
func (s *Sim) Peek() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// RunUntil executes events with scheduled time <= deadline, then advances
// Now to deadline. Events scheduled by executed events are honoured if
// they fall within the deadline. The deadline also fences clock batching:
// no edge past it executes early.
func (s *Sim) RunUntil(deadline Time) {
	prev := s.horizon
	if deadline < s.horizon {
		s.horizon = deadline
	}
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		s.Step()
	}
	s.horizon = prev
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for d picoseconds of simulated time.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }

// RunSegment executes events due at or before deadline, bounded by
// eventBudget executed events (0 = no event bound) — the resumable
// building block the fleet's segment scheduler is made of. It reports
// done=true when the window completed: no pending event at or before
// deadline remains AND the budget was not exhausted first; only then is
// Now advanced to deadline. done=false means the segment paused with
// the window unfinished: Now stays at the last executed event and the
// next RunSegment call with the same deadline resumes bit-exactly where
// this one stopped.
//
// Suspension is exact at every budget: the event fence stops inline
// clock batching at the budget, so a chain of RunSegment calls executes
// the same events, in the same order, with the same Executed counts, as
// a single RunUntil(deadline) — whatever the segment sizes. A pause
// always falls between events, never inside one, so the simulation
// (and everything hanging off it) is quiescent at every pause point and
// may be picked up by a different goroutine, provided the handoff
// establishes a happens-before edge (the fleet scheduler's channel
// park/resume does).
//
// Note the budget check runs before the deadline advance: a segment
// whose budget expires exactly as the queue goes quiet reports
// done=false without advancing Now, and the next call completes the
// window. Event-budgeted callers (fleet.Stop.Events) rely on that order
// so an exhausted budget never silently skips residual time.
func (s *Sim) RunSegment(deadline Time, eventBudget uint64) bool {
	prevH := s.horizon
	if deadline < s.horizon {
		s.horizon = deadline
	}
	end := uint64(0)
	if eventBudget != 0 {
		end = s.executed + eventBudget
	}
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		if end != 0 && s.executed >= end {
			s.horizon = prevH
			return false
		}
		if end != 0 {
			prevF := s.fence
			if prevF == 0 || end < prevF {
				s.fence = end
			}
			s.Step()
			s.fence = prevF
		} else {
			s.Step()
		}
	}
	s.horizon = prevH
	if end != 0 && s.executed >= end {
		return false
	}
	if s.now < deadline {
		s.now = deadline
	}
	return true
}

// Drain executes events until the queue is empty or limit events have run.
// It reports whether the queue was drained. A limit of 0 means no limit.
// Batched clock edges count individually against the limit, and batching
// stops at the limit, so the stopping point matches unbatched execution.
func (s *Sim) Drain(limit uint64) bool { return s.DrainTo(limit, 0) }

// DrainTo is Drain with a floor: it stops, reporting true, as soon as at
// most floor events remain pending. A caller that owns floor perpetual
// timers (periodic agents that re-arm themselves forever) passes their
// count, so "idle" means "nothing but those timers is left" instead of
// never. The check runs between events, so the stopping point — like
// Drain's — is the same event whatever the limit or the clock batch.
func (s *Sim) DrainTo(limit uint64, floor int) bool {
	if limit == 0 {
		for len(s.heap) > floor {
			s.Step()
		}
		return true
	}
	end := s.executed + limit
	for len(s.heap) > floor {
		if s.executed >= end {
			return false
		}
		prev := s.fence
		if prev == 0 || end < prev {
			s.fence = end
		}
		s.Step()
		s.fence = prev
	}
	return true
}

// heap management: a binary min-heap ordered by (at, seq). seq breaks ties
// in scheduling order so same-timestamp events run FIFO, which keeps the
// simulation deterministic.

func (s *Sim) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *Sim) push(t *Timer) {
	t.idx = len(s.heap)
	s.heap = append(s.heap, t)
	s.up(t.idx)
}

func (s *Sim) remove(i int) {
	t := s.heap[i]
	last := len(s.heap) - 1
	if i != last {
		s.swap(i, last)
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i != last && i < len(s.heap) {
		s.fix(i)
	}
	t.idx = -1
}

func (s *Sim) fix(i int) {
	s.down(i)
	s.up(i)
}

func (s *Sim) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Sim) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}
