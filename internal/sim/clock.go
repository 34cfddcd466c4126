package sim

// Component is a piece of synchronous logic stepped once per clock edge.
//
// Tick must return true while the component has work in flight — it did
// something this cycle, or it holds queued input, buffered state, or any
// other reason it may do something next cycle. When every component of a
// clock returns false the clock gates itself off and stops consuming
// simulation events until woken.
type Component interface {
	Tick() bool
}

// ComponentFunc adapts a function to the Component interface.
type ComponentFunc func() bool

// Tick implements Component.
func (f ComponentFunc) Tick() bool { return f() }

// BatchComponent is an optional Component extension for vectorized
// ticking: a component that can execute several consecutive edges as one
// call when it can prove the result is bit-identical to per-edge ticking.
//
// The contract is strict. BatchLimit reports, from the component's
// current state, the largest number of consecutive edges it could execute
// with no externally observable difference from per-edge Ticks — no event
// may be scheduled, no decision whose outcome depends on the exact cycle
// number may fire, and the component's state after the window must be
// byte-identical to the same edges run sequentially. A component that
// cannot prove more returns 1 (always safe). TickBatch(n) is then called
// with 1 < n <= the reported limit; during the call Now and Cycle still
// return the window's first edge (the clock advances them after the
// call). TickBatch must behave exactly like the per-edge loop: run up to
// n edges, stopping early once an edge would have returned false (the
// clock gate). It reports k, the number of edges absorbed (1 <= k <= n),
// and busy, the k-th edge's return value — so k < n implies !busy. The
// clock only opens a window when no foreign event, horizon, fence or
// batch-budget boundary falls inside it, so a batching component may
// assume the outside world is frozen for the whole window.
type BatchComponent interface {
	Component
	// BatchLimit returns the maximum window the component can currently
	// absorb (>= 1).
	BatchLimit() int
	// TickBatch advances the component by up to n consecutive edges,
	// returning the number absorbed and the final edge's busy result.
	TickBatch(n int) (int, bool)
}

// DefaultBatch is the default per-event edge budget of a clock domain:
// while its components stay busy, a clock executes up to this many
// consecutive edges inside one simulation event before re-entering the
// event loop. Batching is observably identical to unbatched execution —
// timestamps, Cycle, Executed and cross-domain ordering are bit-exact for
// every batch size — it only amortises the per-event heap push/pop and
// timer reschedule across the batch.
const DefaultBatch = 64

// Clock is a gateable clock domain. Edges fall on integer multiples of the
// period, counted from the epoch, so independently woken domains stay
// phase-aligned and deterministic.
type Clock struct {
	sim    *Sim
	name   string
	period Time
	comps  []Component
	cycle  uint64
	active bool
	timer  *Timer
	batch  int
	// bcomp is the domain's sole component when it implements
	// BatchComponent (nil otherwise): vectorized windows only apply to
	// single-component domains, where intra-edge component ordering
	// cannot be observed.
	bcomp BatchComponent

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
	c := &Clock{sim: s, name: name, period: period, batch: DefaultBatch}
	c.timer = s.NewTimer(c.edge)
	s.clocks = append(s.clocks, c)
	return c
}

// SetBatch sets the clock's edge budget per simulation event. Values
// below 1 are clamped to 1 (fully unbatched). Results are identical for
// every batch size; the knob exists for performance tuning and for
// equivalence tests.
func (c *Clock) SetBatch(k int) {
	if k < 1 {
		k = 1
	}
	c.batch = k
}

// Batch returns the clock's edge budget per simulation event.
func (c *Clock) Batch() int { return c.batch }

// NewClockMHz creates a clock domain running at freqMHz megahertz.
func (s *Sim) NewClockMHz(name string, freqMHz float64) *Clock {
	return s.NewClock(name, PeriodOfMHz(freqMHz))
}

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

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

// Ticks returns the number of edges actually executed.
func (c *Clock) Ticks() uint64 { return c.ticks }

// Register adds a component to the domain and wakes the clock. Components
// tick in registration order within an edge.
func (c *Clock) Register(comp Component) {
	c.comps = append(c.comps, comp)
	c.bcomp = nil
	if len(c.comps) == 1 {
		if bc, ok := comp.(BatchComponent); ok {
			c.bcomp = bc
		}
	}
	c.Wake()
}

// RegisterFunc adds a function component to the domain.
func (c *Clock) RegisterFunc(fn func() bool) { c.Register(ComponentFunc(fn)) }

// Wake ensures the clock executes its next edge. Calling Wake on an active
// clock is a cheap no-op; producers call it whenever they hand data to a
// component in this domain.
func (c *Clock) Wake() {
	if c.active {
		return
	}
	c.active = true
	// Next edge strictly after now: an edge exactly at Now may already
	// have run this instant, and conservatively skipping it keeps wakeups
	// race-free and deterministic.
	next := (c.sim.now/c.period + 1) * c.period
	c.cycle = uint64(next / c.period)
	c.timer.ScheduleAt(next)
}

// edge executes clock edges: every component ticks once per edge. While
// components stay busy the clock keeps executing consecutive edges inline
// — advancing simulated time itself and counting each edge as one
// executed event — until the batch budget runs out, a foreign event
// becomes due at or before the next edge, the run horizon or event fence
// is reached, or the domain goes idle (which gates the clock off). Only
// when a batch ends with work still pending is the next edge scheduled
// through the event heap, so the (push, pop, reschedule) cycle tax is
// paid once per batch instead of once per edge.
//
// The foreign-event check is `at <= next`, not `<`: an event already in
// the heap at exactly the next edge's time was necessarily scheduled
// before the edge timer would have been re-armed, so in unbatched
// execution its sequence number is lower and it runs first.
func (c *Clock) edge() {
	s := c.sim
	for left := c.batch; ; {
		n := 1
		if c.bcomp != nil && left > 1 {
			// Ask the component first: BatchLimit exits to 1 early on any
			// pending per-cycle decision, which is the common case on
			// small-frame traffic, and then the stop-condition window
			// (divisions plus a heap peek) is skipped entirely.
			if lim := c.bcomp.BatchLimit(); lim > 1 {
				w := c.inlineWindow(left)
				if lim < w {
					w = lim
				}
				if w > 1 {
					n = w
				}
			}
		}
		var busy bool
		if n > 1 {
			// Vectorized window: the component absorbs up to n edges in
			// one call, then the clock applies exactly the accounting k
			// per-edge iterations would have: k ticks, k cycles, k-1
			// inline time advances each counting one executed event.
			k, b := c.bcomp.TickBatch(n)
			if k < 1 || k > n {
				panic("sim: TickBatch absorbed edges out of range")
			}
			busy = b
			n = k
			c.ticks += uint64(k)
			c.cycle += uint64(k)
			s.now += Time(k-1) * c.period
			s.executed += uint64(k - 1)
		} else {
			c.ticks++
			for _, comp := range c.comps {
				if comp.Tick() {
					busy = true
				}
			}
			c.cycle++
		}
		if !busy {
			c.active = false
			return
		}
		next := s.now + c.period
		left -= n
		if left <= 0 || next > s.horizon || (s.fence != 0 && s.executed >= s.fence) {
			c.timer.ScheduleAt(next)
			return
		}
		if at, ok := s.Peek(); ok && at <= next {
			c.timer.ScheduleAt(next)
			return
		}
		s.now = next
		s.executed++
	}
}

// inlineWindow returns the largest number of consecutive edges (>= 1,
// <= left) that can execute inline starting now without crossing any of
// the per-edge stop conditions: the batch budget, the run horizon, the
// event fence, or a foreign event becoming due. Executing w edges as one
// window advances time by (w-1) periods and executed by w-1, so each
// bound is solved for the largest w whose intermediate advances all pass
// the same checks the per-edge loop applies.
func (c *Clock) inlineWindow(left int) int {
	s := c.sim
	w := int64(left)
	p := int64(c.period)
	if s.now <= s.horizon {
		if a := int64(s.horizon-s.now)/p + 1; a < w {
			w = a
		}
	} else {
		w = 1
	}
	if s.fence != 0 {
		if s.executed >= s.fence {
			w = 1
		} else if d := s.fence - s.executed; d+1 < uint64(w) {
			w = int64(d + 1)
		}
	}
	if at, ok := s.Peek(); ok {
		if at <= s.now {
			w = 1
		} else if a := (int64(at-s.now)-1)/p + 1; a < w {
			w = a
		}
	}
	if w < 1 {
		w = 1
	}
	return int(w)
}
