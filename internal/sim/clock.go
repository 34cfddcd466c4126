package sim

// Component is a piece of synchronous logic on a clock domain, and
// Advance is the one contract the clock drives it through: run up to n
// consecutive edges, starting with the edge at Now, and report how many
// ran (1 <= k <= n) and whether the component is still busy after the
// k-th.
//
// busy must be true while the component has work in flight — it did
// something on its last edge, or it holds queued input, buffered state,
// or any other reason it may do something on the next. When a domain
// reports !busy the clock gates itself off and stops consuming
// simulation events until woken.
//
// A plain component runs one edge and answers k = 1 whatever n is. A
// component may answer k > 1 — a window — only when it can prove the
// result is bit-identical to k single-edge calls:
// no event may be scheduled inside the window, no decision whose outcome
// depends on the exact cycle number may fire, every edge but possibly
// the last would have reported busy, and its state afterwards must be
// byte-identical. n is the clock's remaining batch budget, which bounds
// the Ticks run between two heap visits, not a window: n == 1 offers no
// window at all (SetBatch(1), the per-edge reference), and for n > 1 a
// window is sized by the component's own proof cut with Clock.Bound —
// which accounts for everything outside the domain (the next event, the
// run deadline, the event budget) — and may exceed n. Within that bound
// the outside world is frozen. During the call Now and Cycle stay at the
// window's first edge; the clock advances them by k afterwards.
type Component interface {
	Advance(n int) (k int, busy bool)
}

// group is the component of a domain with several (or no) registered
// components: each runs one edge, in registration order. It never takes
// a window, because the order of components inside an edge is
// observable and a window would hide it.
type group []Component

func (g group) Advance(int) (int, bool) {
	busy := false
	for _, comp := range g {
		if _, b := comp.Advance(1); b {
			busy = true
		}
	}
	return 1, busy
}

// DefaultBatch is the edge budget of a clock domain: while its component
// stays busy, a clock executes up to this many consecutive edges inside
// one simulation event before re-entering the event loop, and any event
// due before its next edge ends the batch sooner. A window the component
// takes counts against the budget but is not cut by it: one that reaches
// or passes the budget ends the batch. Either way the next edge re-arms
// through the heap, as every edge does in the per-edge reference, so
// batching is observably identical to unbatched execution — timestamps,
// Cycle, Executed and cross-domain ordering are bit-exact for every
// batch size — and only amortises the per-event heap push/pop and timer
// reschedule across the batch.
const DefaultBatch = 64

// Clock is a gateable clock domain. Edges fall on integer multiples of the
// period, counted from the epoch, so independently woken domains stay
// phase-aligned and deterministic.
type Clock struct {
	sim    *Sim
	name   string
	period Time
	// comp is what edge drives: the registered component when there is
	// exactly one, a group otherwise.
	comp   Component
	cycle  uint64
	active bool
	timer  *Timer
	batch  int
	// woke is when the clock's current run began: the instant of the
	// Wake that started it (WakeAt's instant for a parked start). Its
	// first edge was armed then, every later one by the edge before it.
	woke Time

	// ticks counts edges actually executed (not gated away).
	ticks uint64
}

// NewClock creates a clock domain named name with the given period and
// registers it with the simulator. The clock starts gated (idle); it first
// runs when Wake is called or a component is registered with Register.
func (s *Sim) NewClock(name string, period Time) *Clock {
	if period <= 0 {
		panic("sim: non-positive clock period")
	}
	c := &Clock{sim: s, name: name, period: period, batch: DefaultBatch, comp: group(nil)}
	c.timer = s.NewTimer(c.edge)
	s.clocks = append(s.clocks, c)
	return c
}

// MaxPeriod returns the longest period of the simulator's clock domains,
// 0 when it has none. An event armed more than that long before its
// time precedes every clock edge at that time: each edge is armed no
// earlier than one period before it.
func (s *Sim) MaxPeriod() Time {
	var p Time
	for _, c := range s.clocks {
		p = max(p, c.period)
	}
	return p
}

// SetBatch overrides the clock's edge budget per simulation event
// (DefaultBatch; values below 1 mean 1). It is an equivalence-test hook,
// not a tuning knob: results are identical for every value, and 1 — every
// edge its own event, no window ever offered to the component — is the
// per-edge reference the batched engine is tested against.
func (c *Clock) SetBatch(k int) { c.batch = max(k, 1) }

// NewClockMHz creates a clock domain running at freqMHz megahertz.
func (s *Sim) NewClockMHz(name string, freqMHz float64) *Clock {
	return s.NewClock(name, PeriodOfMHz(freqMHz))
}

// Now returns the simulator's current time; inside a Tick it is the edge
// time.
func (c *Clock) Now() Time { return c.sim.now }

// Sim returns the simulator this clock belongs to.
func (c *Clock) Sim() *Sim { return c.sim }

// Period returns the clock period.
func (c *Clock) Period() Time { return c.period }

// FreqMHz returns the clock frequency in megahertz.
func (c *Clock) FreqMHz() float64 { return 1e6 / float64(c.period) }

// Cycle returns the number of the next edge to execute. Because gated
// cycles are skipped wholesale, Cycle tracks elapsed time divided by the
// period, not the number of executed edges.
func (c *Clock) Cycle() uint64 { return c.cycle }

// Active reports whether the clock is running: it has not gated since
// its last Wake.
func (c *Clock) Active() bool { return c.active }

// Ticks returns the number of edges actually executed.
func (c *Clock) Ticks() uint64 { return c.ticks }

// Register adds a component to the domain and wakes the clock. A sole
// component is driven directly and may take windows; several run one
// edge at a time in registration order.
func (c *Clock) Register(comp Component) {
	switch g := c.comp.(type) {
	case group:
		if len(g) == 0 {
			c.comp = comp
		} else {
			c.comp = append(g, comp)
		}
	default:
		c.comp = group{g, comp}
	}
	c.Wake()
}

// Wake ensures the clock executes its next edge. Calling Wake on an active
// clock is a cheap no-op, inlined at the call site; producers call it
// whenever they hand data to a component in this domain.
func (c *Clock) Wake() {
	if !c.active {
		c.start()
	}
}

// start ungates the clock. A clock parked by WakeAt at or before now
// keeps its parked edge: that wake came first.
func (c *Clock) start() {
	c.active = true
	if c.sim.parked == c {
		c.sim.parked = nil
	}
	if c.timer.Pending() && c.woke <= c.sim.now {
		c.cycle = uint64(c.timer.at / c.period)
		return
	}
	// Next edge strictly after now: an edge exactly at Now may already
	// have run this instant, and conservatively skipping it keeps wakeups
	// race-free and deterministic.
	c.woke = c.sim.now
	next := (c.sim.now/c.period + 1) * c.period
	c.cycle = uint64(next / c.period)
	c.timer.ScheduleAt(next)
}

// WakeAt parks a gated clock: it arms the edge a Wake at instant at (not
// before now) would arm, the first edge strictly after at, with no event
// at at itself; at == Forever unparks it. A Wake before at starts the
// clock earlier, as it would have; one at or after at leaves the parked
// edge as it is. Its component calls it from the edge on which it goes
// idle, or while the clock is gated, for input it knows will arrive at
// at from outside the domain with no event of its own (hw.Arriver). An
// event scheduled for exactly the parked edge's instant before at runs
// ahead of the edge, as it would have run ahead of an edge armed at at
// (Timer.ScheduleAt moves the parked edge behind it); one scheduled
// later, or through a Lane, runs after it.
func (c *Clock) WakeAt(at Time) {
	switch {
	case at == Forever:
		c.timer.Stop()
		if c.sim.parked == c {
			c.sim.parked = nil
		}
	case !c.timer.Pending() || c.woke != at:
		c.woke = at
		c.sim.parked = nil
		c.timer.ScheduleAt((at/c.period + 1) * c.period)
		c.sim.parked = c
	}
}

// EdgeAfter returns the first edge of the clock's current run that
// executes after an event at at that was armed at instant armed: an edge
// later than at, or the edge at at itself when that edge was armed after
// the event was. The run's first edge was armed when it woke, every
// later edge one period before it. An edge armed at instant armed counts
// as armed after the event: the caller's event was armed by one that was
// itself armed more than a period before, so it runs first there (see
// serial.MAC.NextArrival). The one order this cannot derive is a run
// woken by another event at exactly armed whose first edge is at: which
// of that event and the caller's ran first at armed is not recorded, and
// the caller's is taken to have. The answer holds for the current run
// only: a clock that gates and wakes again answers anew.
func (c *Clock) EdgeAfter(armed, at Time) Time {
	t := (at + c.period - 1) / c.period * c.period
	if at <= c.woke { // before the run's first edge
		t = (c.woke/c.period + 1) * c.period
	}
	if t == at && max(t-c.period, c.woke) < armed {
		t += c.period
	}
	return t
}

// edge executes clock edges. While the component stays busy the clock
// keeps executing consecutive edges inline — advancing simulated time
// itself and counting each edge as one executed event — until the batch
// budget runs out, the domain goes idle (which gates the clock off), or
// inline refuses the next edge: another event is due first, or the
// run's deadline or event budget stops it. Only when a batch ends with
// work still pending is the next edge armed through the event heap,
// exactly as the per-edge reference arms every edge, so the (push, pop,
// reschedule) cycle tax is paid once per batch instead of once per edge.
//
// The component is handed only the remaining batch budget, which costs
// nothing to know; everything that limits a window is in Bound, which a
// component asks for once it holds a window of its own, so a window may
// run past the budget: it then ends the batch like the budget's last
// edge. k edges in one call get exactly the accounting k single-edge
// iterations would have: k ticks, k cycles, k-1 inline time advances
// each counting one executed event.
func (c *Clock) edge() {
	s := c.sim
	if !c.active { // a parked edge (WakeAt)
		c.active, c.cycle, s.parked = true, uint64(s.now/c.period), nil
	}
	for left := c.batch; ; {
		k, busy := c.comp.Advance(left)
		if k < 1 || k > 1 && left == 1 {
			panic("sim: component advanced a number of edges out of range")
		}
		c.ticks += uint64(k)
		c.cycle += uint64(k)
		s.now += Time(k-1) * c.period
		s.executed += uint64(k - 1)
		if !busy {
			c.active = false
			return
		}
		next := s.now + c.period
		if left -= k; left <= 0 || !s.inline(next) {
			c.timer.ScheduleAt(next)
			return
		}
		s.now = next
		s.executed++
	}
}

// inline reports whether a clock may advance time to its next edge
// without going back through the heap: the edge must not lie past the
// run deadline, the run's event budget must not be spent, and no other
// event may be due first. That check is `at <= next`, not `<`: an event
// already in the heap at exactly the next edge's time was necessarily
// scheduled before the edge timer would have been re-armed, so in
// unbatched execution its sequence number is lower and it runs first.
func (s *Sim) inline(next Time) bool {
	if next > s.horizon || s.executed >= s.fence {
		return false
	}
	at, _ := s.top()
	return at > next
}

// EdgesBefore returns how many consecutive edges, starting with the
// edge at Now, fall strictly before at: a window that long ends before
// the first edge at or after at. It is at least 1.
func (c *Clock) EdgesBefore(at Time) int {
	n := (at - c.sim.now + c.period - 1) / c.period
	if n < 1 {
		return 1
	}
	return int(min(n, 1<<30))
}

// Bound returns how many consecutive edges, at most n and at least 1,
// may execute as one window starting with the edge at Now: the largest w
// for which inline would have admitted each of the w-1 advances between
// them — min(n, next event, run deadline, event budget). n is
// the component's own limit (what it proved), not the batch budget. It
// costs two divisions and a heap peek, so a component asks only when it
// has a window to cut.
func (c *Clock) Bound(n int) int {
	s := c.sim
	if n < 2 || s.now > s.horizon || s.executed >= s.fence {
		return 1
	}
	// w-1 advances must fit each limit; every term below is that count.
	w := uint64(n - 1)
	w = min(w, uint64((s.horizon-s.now)/c.period), s.fence-s.executed)
	at, _ := s.top() // Forever when nothing is queued: no bound
	if at <= s.now {
		return 1
	}
	return int(min(w, uint64((at-s.now-1)/c.period))) + 1
}
