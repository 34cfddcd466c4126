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
// re-entrantly from inside a Tick.
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
// resets the rest of its own fields. A design with a module that does
// not implement Resetter is not reused (Design.Reset reports false).
// Projects implement it too, for their state outside the design: tables,
// counters, agents' bookkeeping.
type Resetter interface {
	Reset()
}

// DefaultBusBytes is the reference datapath width: 256-bit AXI4-Stream, as
// in the NetFPGA SUME reference designs.
const DefaultBusBytes = 32

// DefaultClockMHz is the reference datapath clock.
const DefaultClockMHz = 200.0

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
	// windows and absorbed back WindowStats.
	windows, absorbed uint64
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
	sealed struct{ modules, streams, queues, burst int }
}

// NewDesign creates a design named name on the given datapath clock with a
// busBytes-wide datapath, and registers it as a component of that clock.
func NewDesign(name string, clk *sim.Clock, busBytes int) *Design {
	if busBytes <= 0 {
		busBytes = DefaultBusBytes
	}
	d := &Design{name: name, clock: clk, busBytes: busBytes}
	d.win.bus = busBytes
	// Infrastructure overhead: clocking, reset trees, AXI interconnect.
	d.overhead = Resources{LUTs: 9000, FFs: 14000, BRAM36: 8}
	clk.Register(d)
	return d
}

// Name returns the design's name.
func (d *Design) Name() string { return d.name }

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

// maxWindow only keeps the int math tame; minWindow is the shortest
// window worth its solve (one attempt costs about two Ticks), so shorter
// ones — and frame-burst caps below it — are not taken.
const (
	maxWindow = 1 << 20
	minWindow = 4
)

// Advance implements sim.Component: a frame window of up to n cycles
// when one can be proven, else one Tick — also when n is more than the
// design could plan for, so a caller never gets cycles nobody solved.
// Three O(1) gates first decide whether to try at all; they only pick
// which cycles run as Ticks, never what those compute. Nothing is tried
// right after a frame boundary (edge) — boundaries come in runs, and on
// small-frame traffic, where every cycle has one, an attempt is pure
// cost; nor after a failed attempt until the next boundary has passed
// (stuck: whatever refused the window is still there); nor when a
// foreign event is due before minWindow edges could run. Only a solved
// window is worth asking the clock how far the outside world lets it run.
func (d *Design) Advance(n int) (int, bool) {
	if n > 1 && d.burst != 1 && !d.edge && !d.stuck {
		if at, ok := d.clock.Sim().Peek(); !ok || at > d.clock.Now()+(minWindow-1)*d.clock.Period() {
			if lim := d.solve(); lim < minWindow {
				d.stuck = true
			} else if n = d.clock.Bound(min(n, lim)); n > 1 {
				d.apply(n, n == lim)
				return n, true
			}
		}
	}
	return 1, d.Tick()
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
	d.sealed.modules, d.sealed.streams, d.sealed.queues = len(d.modules), len(d.streams), len(d.queues)
	d.sealed.burst = d.burst
}

// Reset returns the design to the state Seal recorded: every stream and
// queue empty with its statistics zeroed, every module reset (Resetter)
// and runnable, tick counts and window statistics zero. The frame pool
// keeps its free frames — which buffer a frame lands in is observable by
// nothing — and frames still in flight are dropped, not recycled. The
// window attempt counter is not rewound: a stream's last declaration
// must stay stale for the next attempt. Reset reports false, changing
// nothing, when a module does not implement Resetter or the design has
// grown since Seal. The clock is the simulator's to restore.
func (d *Design) Reset() bool {
	if d.sealed.modules != len(d.modules) || d.sealed.streams != len(d.streams) || d.sealed.queues != len(d.queues) {
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
		s.reset()
	}
	for _, q := range d.queues {
		q.Reset()
	}
	d.edge, d.stuck = false, false
	d.windows, d.absorbed = 0, 0
	d.burst = d.sealed.burst
	return true
}

// Stats returns every design counter in a fresh map, keyed
// "<module>.<counter>", plus a "<queue>.drops" entry for each design
// queue that has dropped.
func (d *Design) Stats() map[string]uint64 {
	n := 0
	for _, m := range d.modules {
		if cs, ok := m.(CounterSource); ok {
			n += cs.Counters().Len()
		}
	}
	out := make(map[string]uint64, n+len(d.queues))
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
	for _, q := range d.queues {
		if q.drops > 0 {
			dst[prefix+q.name+".drops"] = q.drops
		}
	}
}

// Sum adds up the design's counters of one kind: every module's own
// counters plus the drop counter of every design queue declared with
// that kind. Sum(QueueDrop) is the sweeps' loss figure. It counts an
// output-queue tail drop twice — once as the queue's "<queue>.drops" and
// once as the stage's "port<N>_drops" — because the name-matching sum it
// replaces did, and recorded sweep tables carry that value.
func (d *Design) Sum(kind CounterKind) uint64 {
	var total uint64
	for _, m := range d.modules {
		if cs, ok := m.(CounterSource); ok {
			total += cs.Counters().Sum(kind)
		}
	}
	for _, q := range d.queues {
		if q.dropKind == kind {
			total += q.drops
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
