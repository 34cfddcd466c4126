package hw

import (
	"fmt"

	"repro/internal/sim"
)

// Module is one building block of a datapath design. Modules are stepped
// once per datapath clock cycle and exchange beats via Streams handed to
// them at construction time.
//
// Tick must return true while the module has work in flight (see
// sim.Component); returning false from every module lets the datapath
// clock gate off.
type Module interface {
	// Name identifies the module instance within its design.
	Name() string
	// Tick advances the module by one clock cycle.
	Tick() bool
	// Resources estimates the fabric this module consumes.
	Resources() Resources
}

// BackgroundCoupler is the contention hook a hybrid-fidelity run
// installs on a design: an analytic background-traffic model that
// shares egress capacity with the cycle-accurate datapath. When a
// queueing module (OutputQueues) enqueues a foreground frame for a
// port, it asks Release for the clear-time of the background backlog
// pending at that instant and holds the frame until then — the frame
// waits behind exactly the background it arrived behind, and
// background admitted later queues conceptually behind the frame
// rather than extending its wait. That per-frame wait is how
// background load shows up in foreground latency percentiles.
// CouplePort registers the module's Waker and WaitUntil arms it,
// so a parked queue stage re-arms the clock exactly when its head
// frame's wait expires; the wake fires from a simulation event, never
// re-entrantly from inside a Tick. Nothing else wakes it: the backlog
// draining is no news to the queue stage, since a held frame's release
// is never later than the drain of the backlog it waits behind.
//
// Release is pure — no mutation, no event scheduling — so it is safe
// anywhere, including Rater.Rates. WaitUntil schedules an event and
// must only be called from a Tick edge.
//
// Full-fidelity designs carry no coupler (Background() == nil) and
// every related branch is dead, which is the bit-exactness argument
// for the default path.
type BackgroundCoupler interface {
	// CouplePort registers w to be woken when a WaitUntil deadline for
	// port bit expires.
	CouplePort(bit int, w Waker)
	// Release returns the clear-time of port bit's background backlog
	// pending now, or 0 when the wire is free. Pure.
	Release(bit int) Time
	// WaitUntil arms port bit's coupled wake for time t. Tick-edge
	// only.
	WaitUntil(bit int, t Time)
}

// SetBackground installs the design's background coupler (nil for full
// fidelity). Core installs it before any modules are built so queue
// constructors can couple their ports.
func (d *Design) SetBackground(bc BackgroundCoupler) { d.background = bc }

// Background returns the installed background coupler, or nil.
func (d *Design) Background() BackgroundCoupler { return d.background }

// TimingConstrained is implemented by modules whose logic limits the
// achievable clock frequency. Synthesize fails if the design clock exceeds
// the slowest module's Fmax.
type TimingConstrained interface {
	MaxFreqMHz() float64
}

// Resetter is the module contract for reuse: Reset returns the module to
// the state its constructor left it in — counters zero, nothing held or
// in flight, construction-time configuration — so a device built once
// can run cell after cell exactly as a fresh build would. Streams and
// frame queues the design owns are reset by the design, and plain
// registers (RegisterFile.AddVar) by the device's AddressMap; a module
// resets the rest of its own fields. The frames a module holds whole —
// an emitter's (Emitter.Drop), a collected frame waiting for space — go
// back to the design's pool; a frame whose Last beat still sits in a
// stream is that stream's. A design with a module that does
// not implement Resetter is not reused (Design.Reset reports false).
// Projects implement it too, for their state outside the design: tables,
// counters, agents' bookkeeping.
type Resetter interface {
	Reset()
}

// DefaultBusBytes is the reference datapath width: 256-bit AXI4-Stream, as
// in the NetFPGA SUME reference designs.
const DefaultBusBytes = 32

// Design is a module graph bound to a datapath clock, and the clock's
// sole sim.Component. It answers Advance in one of two ways: Tick steps
// every runnable module once, in registration order (which should follow
// dataflow, sources first, for lowest latency); or, when the modules'
// rate declarations prove that the next cycles move beats and decide
// nothing, a frame window (window.go) applies many cycles at once as
// stream arithmetic without calling a module. Which cycles run as
// windows never changes a result.
type Design struct {
	name     string
	clock    *sim.Clock
	busBytes int
	modules  []Module
	// runnable implements sparse ticking: a module whose Tick returned
	// false is skipped on subsequent edges until something marks it
	// runnable again — a push into a conduit it consumes (Consume), its
	// Waker, or a design-wide Wake. By the Component contract an idle
	// module's Tick is a side-effect-free false until new input arrives,
	// so skipping it is observably identical to ticking it and removes
	// the dominant per-edge cost: calling every idle module of the
	// design on every busy cycle.
	runnable []bool
	// tickCounts records how often each module was invoked (see
	// ModuleTicks) — the observable proof that sparse ticking works, and
	// the per-module half of the fleet's utilization story.
	tickCounts []uint64
	// raters holds each module's Rater view, nil when it declares
	// nothing; win is the current window attempt.
	raters []Rater
	win    Window
	// edge is set by every design stream and queue when a first or Last
	// beat or a whole frame enters or leaves it, and cleared by Tick;
	// stuck is set by a failed window attempt and cleared by the next
	// boundary. They gate window attempts (Advance), nothing else.
	edge  bool
	stuck bool
	// fresh is set from the edge on which the clock gates until the first
	// edge of its next run, which recomputes every Arriver's edge.
	fresh bool
	// windows and absorbed back WindowStats.
	windows, absorbed uint64
	// arrive is the first edge at which an Arriver takes input, Forever
	// when none is due and 0 while fresh; arr holds the Arrivers, built
	// when the first one rings (Arrived).
	arrive Time
	arr    *arrivals
	// burst caps frame windows (see SetFrameBurst): 0 = sized by the
	// streams alone, 1 = off, N > 1 = cap.
	burst    int
	streams  []*Stream
	queues   []*FrameQueue
	pool     FramePool
	overhead Resources
	// background is the hybrid-fidelity contention hook; nil in full
	// fidelity, where every coupler branch is dead code.
	background BackgroundCoupler
	// sealed is the shape and frame-burst cap Seal recorded.
	sealed struct{ modules, streams, queues, burst int32 }
}

// NewDesign creates a design named name on the given datapath clock with a
// busBytes-wide datapath, and registers it as a component of that clock.
func NewDesign(name string, clk *sim.Clock, busBytes int) *Design {
	if busBytes <= 0 {
		busBytes = DefaultBusBytes
	}
	d := &Design{name: name, clock: clk, busBytes: busBytes, fresh: true}
	d.win.bus = busBytes
	// Infrastructure overhead: clocking, reset trees, AXI interconnect.
	d.overhead = Resources{LUTs: 9000, FFs: 14000, BRAM36: 8}
	clk.Register(d)
	return d
}

// BusBytes returns the datapath width in bytes.
func (d *Design) BusBytes() int { return d.busBytes }

// Clock returns the datapath clock.
func (d *Design) Clock() *sim.Clock { return d.clock }

// Now returns the current simulated time, for timestamping modules.
func (d *Design) Now() Time { return d.clock.Now() }

// Wake re-arms the datapath clock and conservatively marks every module
// runnable; a push into a design conduit calls it unless the conduit is
// wired to its consumer (Consume).
func (d *Design) Wake() {
	for i := range d.runnable {
		d.runnable[i] = true
	}
	d.clock.Wake()
}

// wakeModule marks module i runnable and re-arms the clock. It and the
// clock's active check inline, so a push into a consumed conduit makes no
// call while the datapath is running.
func (d *Design) wakeModule(i int32) {
	d.runnable[i] = true
	d.clock.Wake()
}

// A Conduit is a design input a module consumes: a *Stream or a
// *FrameQueue.
type Conduit interface {
	consumedBy(d *Design, i int32)
}

// Consume wires each conduit to its consumer m: a push into it marks
// only m runnable before re-arming the clock, instead of every module in
// the design. Constructors call it right after AddModule(m), for every
// input stream and queue m pops. It panics, naming m, if m was never
// added to the design.
func (d *Design) Consume(m Module, cs ...Conduit) {
	i := d.index(m)
	for _, c := range cs {
		c.consumedBy(d, i)
	}
}

// Waker wakes one module of a design, as a push into a conduit it
// consumes does, for wakes that arrive through no conduit: a module's own
// restart, the hybrid coupler's release. Design.Waker returns one.
type Waker struct {
	d *Design
	i int32
}

// Wake marks the module runnable and re-arms the datapath clock.
func (w Waker) Wake() { w.d.wakeModule(w.i) }

// Waker returns the Waker of m. It panics, naming m, if m was never added
// to the design.
func (d *Design) Waker(m Module) Waker { return Waker{d, d.index(m)} }

// index returns m's position in the tick order.
func (d *Design) index(m Module) int32 {
	for i, x := range d.modules {
		if x == m {
			return int32(i)
		}
	}
	panic("hw: module " + m.Name() + " is not in design " + d.name + "; AddModule it before wiring its wakes")
}

// Pool returns the design's frame pool, shared by the design's modules
// and the device's edge endpoints (taps) so frames recycle across the
// whole traffic loop of one simulation.
func (d *Design) Pool() *FramePool { return &d.pool }

// AddModule appends a module to the design's tick order.
func (d *Design) AddModule(m Module) {
	d.modules = append(d.modules, m)
	d.runnable = append(d.runnable, true)
	d.tickCounts = append(d.tickCounts, 0)
	r, _ := m.(Rater)
	d.raters = append(d.raters, r)
	d.clock.Wake()
}

// SetFrameBurst caps frame windows at n cycles; 1 turns them off, so
// every cycle is a Tick, and 0 restores the default of sizing them from
// the streams alone. It is an equivalence-test hook, not a tuning knob:
// results are bit-identical for every value, and 1 is the per-cycle
// reference the window layer is tested against.
func (d *Design) SetFrameBurst(n int) { d.burst = max(n, 0) }

// Modules returns the design's modules in tick order.
func (d *Design) Modules() []Module { return d.modules }

// ModuleTicks returns, per module name, how often that module was
// invoked: once per Tick it ran, and once per frame window it was
// runnable in, however many cycles the window absorbed — so the count
// falls with the work windows save. With sparse ticking (Consume
// wiring) an idle module's count stops growing even while the rest of
// the design is busy; the regression tests for sparse-wired projects pin
// exactly that. It is a cost figure, not a simulation result: it varies
// with the window size while every result stays bit-identical.
func (d *Design) ModuleTicks() map[string]uint64 {
	out := make(map[string]uint64, len(d.modules))
	for i, m := range d.modules {
		out[m.Name()] = d.tickCounts[i]
	}
	return out
}

// NewStream creates a stream owned by the design, wired to wake the
// datapath clock on push.
func (d *Design) NewStream(name string, capBeats int) *Stream {
	s := NewStream(name, capBeats)
	s.edge = &d.edge
	s.OnPush(d.Wake)
	d.streams = append(d.streams, s)
	return s
}

// NewFrameQueue creates a frame queue owned by the design, wired to wake
// the datapath clock on push. Edge adapters (MAC/DMA attach) use these.
func (d *Design) NewFrameQueue(name string, capFrames, capBytes int) *FrameQueue {
	q := NewFrameQueue(name, capFrames, capBytes)
	q.edge = &d.edge
	q.OnPush(d.Wake)
	d.queues = append(d.queues, q)
	return q
}

// Streams returns the design's streams.
func (d *Design) Streams() []*Stream { return d.streams }

// Tick runs one datapath cycle by stepping every runnable module once, in
// tick order. Idle modules stay skipped until a push or a wake re-marks
// them; a module marked by an earlier one in this cycle still ticks in
// it. Testing each module's flag in turn measured faster on the reference
// designs than walking a bitset to the runnable ones: with most of a
// handful of modules runnable, a predictable flag test is cheaper than
// finding the next set bit.
func (d *Design) Tick() bool {
	if d.edge {
		d.edge, d.stuck = false, false
	}
	busy := false
	for i, m := range d.modules {
		if !d.runnable[i] {
			continue
		}
		d.tickCounts[i]++
		if m.Tick() {
			busy = true
		} else {
			d.runnable[i] = false
		}
	}
	return busy
}

// An Arriver is a module that takes input arriving from outside its
// clock domain with no event per arrival, at instants it knows ahead: a
// MAC attach whose port's wire is timed by arithmetic. The design runs
// Take at the start of the first edge that would have seen the arrival's
// event (sim.Clock.EdgeAfter), before any module ticks, as that event
// ran before the edge; frame windows end before that edge; and when
// every module goes idle with an arrival pending, the design parks the
// clock on it (sim.Clock.WakeAt), so a gated clock is restarted by one
// event per idle period, not one per arrival. An Arriver rings the
// design (Arrived) whenever its next arrival may have changed. An edge
// that goes idle with an arrival before it pending panics, naming the
// Arriver (see park).
type Arriver interface {
	Module
	// Arrival reports when the next input arrives and when the event
	// that would have delivered it was armed; Forever for both when none
	// is pending.
	Arrival() (at, armed Time)
	// Take takes the next input, whose arrival the edge at Now sees.
	Take()
}

// arrivals are a design's Arrivers and what their edges have seen.
type arrivals struct {
	slots        []arrival
	parks, wakes uint64
}

// arrival is one Arriver, its tick-order index, its next arrival (at,
// armed, as Arrival last reported them) and the edge that takes it
// (Forever while the design is fresh).
type arrival struct {
	a               Arriver
	i               int32
	at, armed, edge Time
}

// arrived runs the Arrivers due at this edge: one comparison when none
// is. It inlines, like the clock's active check.
func (d *Design) arrived() {
	if d.clock.Now() >= d.arrive {
		d.takeArrivals()
	}
}

// takeArrivals runs Take for every input whose arrival this edge sees
// and records when each Arriver takes next. The first edge of a run
// computes every edge anew: the run's first edge was armed when it woke
// (EdgeAfter).
func (d *Design) takeArrivals() {
	now, fresh := d.clock.Now(), d.fresh
	d.fresh, d.arrive = false, sim.Forever
	if d.arr == nil {
		return
	}
	for k := range d.arr.slots {
		s := &d.arr.slots[k]
		if fresh && s.at != sim.Forever {
			s.edge = d.clock.EdgeAfter(s.armed, s.at)
		}
		for s.edge <= now {
			if !d.runnable[s.i] {
				d.arr.wakes++
			}
			s.a.Take()
			d.note(s)
		}
		d.arrive = min(d.arrive, s.edge)
	}
}

// note records s's next arrival, and the edge that takes it unless the
// design is fresh.
func (d *Design) note(s *arrival) {
	s.at, s.armed = s.a.Arrival()
	s.edge = sim.Forever
	if s.at != sim.Forever && !d.fresh {
		s.edge = d.clock.EdgeAfter(s.armed, s.at)
	}
}

// park runs on the edge on which every module goes idle, and whenever
// an arrival may have changed while the clock is gated: the clock
// restarts at the first pending arrival, as that arrival's event would
// have restarted it, or stays gated when none is pending. It reports
// whether one is. On an edge (the clock still active), an arrival
// before it was due at an edge that has run, so one still pending is an
// Arriver that did not take it where EdgeAfter put it; parking on it
// would run this edge again, forever, so it panics instead.
func (d *Design) park() bool {
	d.fresh, d.arrive = true, 0
	now, edge := d.clock.Now(), d.clock.Active()
	at := sim.Forever
	for _, s := range d.arr.slots {
		if edge && s.at < now {
			panic(fmt.Sprintf("hw: %s: its arrival at %v was not taken by the edge at %v or an earlier one (sim.Clock.EdgeAfter)", s.a.Name(), s.at, now))
		}
		at = min(at, s.at)
	}
	d.clock.WakeAt(at)
	return at != sim.Forever
}

// Arrived tells the design that a's next arrival may have changed: it
// may have become earlier, or been taken outside an edge. A gated
// clock parks anew; a running one takes it at its edge.
func (d *Design) Arrived(a Arriver) {
	if d.arr == nil {
		d.arr = &arrivals{}
		for i, m := range d.modules {
			if x, ok := m.(Arriver); ok {
				d.arr.slots = append(d.arr.slots, arrival{a: x, i: int32(i), at: sim.Forever, edge: sim.Forever})
			}
		}
	}
	for k := range d.arr.slots {
		if s := &d.arr.slots[k]; s.a == a {
			d.note(s)
			switch {
			case !d.clock.Active():
				d.park()
			case !d.fresh:
				d.arrive = min(d.arrive, s.edge)
			}
		}
	}
}

// ArrivalStats reports how often the clock gated with an arrival pending
// and was parked on it, and how often an Arriver that was parked took an
// arrival.
func (d *Design) ArrivalStats() (parks, wakes uint64) {
	if d.arr == nil {
		return 0, 0
	}
	return d.arr.parks, d.arr.wakes
}

// maxWindow only keeps the int math tame; minWindow is the shortest
// window worth its solve (one attempt costs about two Ticks), so shorter
// ones — and frame-burst caps below it — are not taken.
const (
	maxWindow = 1 << 20
	minWindow = 4
)

// Advance implements sim.Component: a frame window when one can be
// proven, else one Tick. n, the clock's remaining batch budget, only
// says whether a window may be offered at all (n > 1); the window runs
// as far as the modules' declarations solve (lim) and the clock's Bound
// lets it — until something decides — however much of the batch is
// left. Three O(1) gates first decide whether to try at all; they only
// pick which cycles run as Ticks, never what those compute. Nothing is
// tried right after a frame boundary (edge) — boundaries come in runs,
// and on small-frame traffic, where every cycle has one, an attempt is
// pure cost; nor after a failed attempt until the next boundary has
// passed (stuck: whatever refused the window is still there); nor when
// a foreign event or an arrival is due before minWindow edges could run. Only a
// solved window is worth asking the clock how far the outside world
// lets it run.
func (d *Design) Advance(n int) (int, bool) {
	d.arrived()
	if n > 1 && d.burst != 1 && !d.edge && !d.stuck {
		soon := d.clock.Now() + (minWindow-1)*d.clock.Period()
		if at, ok := d.clock.Sim().Peek(); (!ok || at > soon) && d.arrive > soon {
			if lim := d.solve(); lim < minWindow {
				d.stuck = true
			} else if n = d.clock.Bound(lim); n > 1 {
				d.apply(n, n == lim)
				return n, true
			}
		}
	}
	busy := d.Tick()
	if !busy && d.arr != nil && d.park() {
		d.arr.parks++
	}
	return 1, busy
}

// solve runs one window attempt and returns its size, below minWindow
// for none. Every Rater declares — a runnable module that is none means
// no window; a parked one is idle until a push wakes it, and a push at
// a stream whose consumer declared nothing is itself no window — then
// every named stream folds in its bound. Some module must be busy
// throughout: that makes the n-th Tick's result true without running it.
func (d *Design) solve() int {
	w := &d.win
	w.gen++
	w.streams = w.streams[:0]
	w.busy = false
	w.n = maxWindow
	if d.burst > 1 {
		w.n = d.burst
	}
	if d.arrive != sim.Forever { // the edge that takes an arrival is a Tick
		w.n = min(w.n, d.clock.EdgesBefore(d.arrive))
	}
	for i, r := range d.raters {
		if r == nil {
			if d.runnable[i] {
				return 1
			}
			continue
		}
		w.at, w.parked = i, !d.runnable[i]
		if r.Rates(w); w.n < minWindow {
			return 1
		}
	}
	if !w.busy {
		return 1
	}
	n := w.n
	for _, s := range w.streams {
		if n = s.plan(n, d.busBytes); n < minWindow {
			break
		}
	}
	return n
}

// apply runs the first n cycles of the window solve just proved as
// stream arithmetic. Relayed streams go first: their beats are read out
// of the source stream's stock and emitter as they stood. Modules are
// not called, and parked-or-not is left as it was: a module that would
// have gone idle inside the window returns a side-effect-free false on
// the next Tick. A window that ran to its solved bound (whole) stopped
// at a decision — a Last beat, a lookup result — so the next cycle is
// not worth an attempt.
func (d *Design) apply(n int, whole bool) {
	d.edge = whole
	for _, relayed := range [2]bool{true, false} {
		for _, s := range d.win.streams {
			if (s.prod == endRelay) == relayed {
				s.advance(n, d.busBytes)
			}
		}
	}
	for i, r := range d.runnable {
		if r {
			d.tickCounts[i]++
		}
	}
	d.windows++
	d.absorbed += uint64(n)
}

// WindowStats reports how many frame windows the design opened and how
// many datapath cycles they absorbed between them.
func (d *Design) WindowStats() (windows, cycles uint64) { return d.windows, d.absorbed }

// Seal records the design as built — its modules, streams and queues,
// and the frame-burst cap — as the state Reset returns to.
func (d *Design) Seal() {
	d.sealed.modules, d.sealed.streams, d.sealed.queues = int32(len(d.modules)), int32(len(d.streams)), int32(len(d.queues))
	d.sealed.burst = int32(d.burst)
}

// Reset returns the design to the state Seal recorded: every stream and
// queue empty with its statistics zeroed, every module reset (Resetter)
// and runnable, tick counts and window statistics zero. Every frame
// still in flight goes back to the design's pool, once: a module hands
// back what it holds whole (its emitters, collected frames), a stream
// the frames whose Last beat it queues, a queue its frames. The pool
// keeps them with its free frames — which buffer a frame lands in is
// observable by nothing — so the next cell draws the frames this one
// left in flight instead of allocating them. The window attempt counter
// is not rewound: a stream's last declaration must stay stale for the
// next attempt. Reset reports false, changing nothing, when a module
// does not implement Resetter or the design has grown since Seal. The
// clock is the simulator's to restore.
func (d *Design) Reset() bool {
	if int(d.sealed.modules) != len(d.modules) || int(d.sealed.streams) != len(d.streams) || int(d.sealed.queues) != len(d.queues) {
		return false
	}
	for _, m := range d.modules {
		if _, ok := m.(Resetter); !ok {
			return false
		}
	}
	for i, m := range d.modules {
		m.(Resetter).Reset()
		d.runnable[i] = true
		d.tickCounts[i] = 0
	}
	for _, s := range d.streams {
		s.reset(&d.pool)
	}
	for _, q := range d.queues {
		q.Reset(&d.pool)
	}
	d.edge, d.stuck = false, false
	d.windows, d.absorbed = 0, 0
	d.burst = int(d.sealed.burst)
	d.fresh, d.arrive = true, 0
	if d.arr != nil {
		for k := range d.arr.slots {
			s := &d.arr.slots[k]
			s.at, s.armed, s.edge = sim.Forever, sim.Forever, sim.Forever
		}
		d.arr.parks, d.arr.wakes = 0, 0
	}
	return true
}

// Stats returns every design counter in a fresh map, keyed
// "<module>.<counter>". A design queue's drops appear under the module
// that owns the queue, which lists them (FrameQueue.DropCounter).
func (d *Design) Stats() map[string]uint64 {
	n := 0
	for _, m := range d.modules {
		if cs, ok := m.(CounterSource); ok {
			n += cs.Counters().Len()
		}
	}
	out := make(map[string]uint64, n)
	d.AddStats(out, "")
	return out
}

// AddStats writes the Stats view into dst with every key prefixed —
// the device snapshot's "design." block — building each key with one
// concatenation.
func (d *Design) AddStats(dst map[string]uint64, prefix string) {
	for _, m := range d.modules {
		if cs, ok := m.(CounterSource); ok {
			cs.Counters().addTo(dst, prefix, m.Name(), ".")
		}
	}
}

// Sum adds up the design's module counters of one kind. Sum(QueueDrop)
// is the sweeps' loss figure: each queue's tail drops count once,
// through the module that owns the queue.
func (d *Design) Sum(kind CounterKind) uint64 {
	var total uint64
	for _, m := range d.modules {
		if cs, ok := m.(CounterSource); ok {
			total += cs.Counters().Sum(kind)
		}
	}
	return total
}

// Synthesize validates the design against a target device and produces a
// utilization report. It fails if the design exceeds the device's
// capacity, needs more serial links than the device offers, or declares a
// module Fmax below the datapath clock.
func (d *Design) Synthesize(dev FPGA) (*Report, error) {
	rep := &Report{
		Design:   d.name,
		Device:   dev,
		ClockMHz: d.clock.FreqMHz(),
	}
	total := d.overhead
	rep.PerModule = append(rep.PerModule, ModuleUsage{Module: "infrastructure", Res: d.overhead})
	fmax := 0.0
	for _, m := range d.modules {
		r := m.Resources()
		total = total.Add(r)
		rep.PerModule = append(rep.PerModule, ModuleUsage{Module: m.Name(), Res: r})
		if tc, ok := m.(TimingConstrained); ok {
			if f := tc.MaxFreqMHz(); f > 0 && (fmax == 0 || f < fmax) {
				fmax = f
			}
		}
	}
	// Streams are skid buffers: FFs proportional to width and depth.
	for _, s := range d.streams {
		total = total.Add(Resources{LUTs: 8 * d.busBytes, FFs: s.Cap() * d.busBytes / 4, BRAM36: BRAMForBytes(s.Cap() * d.busBytes / 8)})
	}
	rep.Total = total
	rep.FmaxMHz = fmax
	if !total.FitsIn(dev.Capacity) {
		return rep, fmt.Errorf("hw: design %s does not fit %s: need %+v, have %+v",
			d.name, dev.Name, total, dev.Capacity)
	}
	if fmax > 0 && rep.ClockMHz > fmax {
		return rep, fmt.Errorf("hw: design %s fails timing on %s: clock %.1f MHz > Fmax %.1f MHz",
			d.name, dev.Name, rep.ClockMHz, fmax)
	}
	return rep, nil
}
