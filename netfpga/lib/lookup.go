package lib

import "repro/netfpga/hw"

// LookupFunc decides a frame's destinations. It runs when the frame is
// fully buffered, may rewrite the frame in place (headers, TTL), and must
// set Meta.DstPorts (zero drops the frame). The returned verdict allows
// punting to software.
type LookupFunc func(f *hw.Frame) Verdict

// Verdict is a lookup outcome.
type Verdict int

// Verdicts.
const (
	// Forward sends the frame to Meta.DstPorts.
	Forward Verdict = iota
	// Drop discards the frame.
	Drop
	// ToCPU punts the frame to the software slow path (the project's
	// agent) in addition to Meta.DstPorts (usually zero).
	ToCPU
)

// OutputPortLookup is the projects' decision stage: a store-and-forward
// module that buffers each frame, applies a LookupFunc after a
// configurable pipeline latency (modelling table access time), and
// re-emits the frame. Buffering makes in-place header rewrites safe: a
// frame is private to the module between its last ingress beat and first
// egress beat.
type OutputPortLookup struct {
	name string
	d    *hw.Design
	in   *hw.Stream
	out  *hw.Stream
	fn   LookupFunc
	res  hw.Resources

	// LatencyCycles delays the decision, modelling lookup pipelines
	// (e.g. external SRAM reads).
	latency int

	// pending is the lookup pipeline: frames whose table access is in
	// flight, each tagged with the cycle its result returns. Real lookup
	// engines overlap accesses this way, so latency does not cost
	// throughput.
	pending []pendingLookup
	depth   int
	// ready decouples the decision stage from the emit stage (a 2-deep
	// skid buffer), so back-to-back minimum-size frames sustain one
	// frame per beat-time.
	ready []*hw.Frame
	emit  hw.Emitter

	lookups, drops, punts uint64
	ctrs                  hw.Counters
	cpu                   *hw.FrameQueue
}

// pendingLookup is one in-flight table access.
type pendingLookup struct {
	f       *hw.Frame
	readyAt uint64 // clock cycle the result is available
}

// defaultLookupPipelineDepth bounds concurrently in-flight lookups.
const defaultLookupPipelineDepth = 8

// SetPipelineDepth overrides how many lookups may be in flight at once
// (default 8). Depth 1 models an unpipelined engine — the ablation that
// shows why real lookup pipelines overlap table accesses.
func (l *OutputPortLookup) SetPipelineDepth(n int) {
	if n < 1 {
		n = 1
	}
	l.depth = n
}

// NewOutputPortLookup creates the module. res is the project-specific
// resource estimate for the lookup logic (tables included). cpuQ, when
// non-nil, receives punted frames (the CPU/DMA exception path).
func NewOutputPortLookup(d *hw.Design, name string, in, out *hw.Stream,
	fn LookupFunc, latencyCycles int, res hw.Resources, cpuQ *hw.FrameQueue) *OutputPortLookup {
	l := &OutputPortLookup{name: name, d: d, in: in, out: out, fn: fn,
		latency: latencyCycles, res: res, cpu: cpuQ,
		depth: defaultLookupPipelineDepth}
	l.ctrs.Grow(3)
	l.ctrs.Add("lookups", &l.lookups)
	l.ctrs.Add("drops", &l.drops) // policy drops: Count, not QueueDrop
	l.ctrs.Add("punts", &l.punts)
	if cpuQ != nil {
		// A full punt queue loses the agent's copy, not datapath
		// traffic: Count. Exported once the queue has dropped.
		punt, c := new(hw.Counters), cpuQ.DropCounter("drops", hw.Count)
		punt.AddCounter(c)
		l.ctrs.Include("punt_", punt, c.Ptr)
	}
	d.AddModule(l)
	d.Consume(l, in)
	return l
}

// Name implements hw.Module.
func (l *OutputPortLookup) Name() string { return l.name }

// Resources implements hw.Module.
func (l *OutputPortLookup) Resources() hw.Resources { return l.res }

// Tick implements hw.Module. The three stages — collect, decide, emit —
// are pipelined so a frame can be collected while the previous one
// drains; the module sustains one beat per cycle in steady state, as the
// hardware block does.
func (l *OutputPortLookup) Tick() bool {
	busy := false

	// Emit stage: refill from the decided queue, then push one beat.
	if !l.emit.Active() && len(l.ready) > 0 {
		l.emit.Start(l.ready[0])
		copy(l.ready, l.ready[1:])
		l.ready = l.ready[:len(l.ready)-1]
	}
	if l.emit.Active() {
		if pushed, _ := l.emit.Emit(l.out, l.d.BusBytes()); pushed {
			busy = true
		}
	}

	// Decision stage: retire the oldest in-flight lookup once its
	// latency has elapsed and the decided queue has room.
	if len(l.pending) > 0 && l.d.Clock().Cycle() >= l.pending[0].readyAt && len(l.ready) < 2 {
		f := l.pending[0].f
		copy(l.pending, l.pending[1:])
		l.pending = l.pending[:len(l.pending)-1]
		l.lookups++
		pool := l.d.Pool()
		switch l.fn(f) {
		case Drop:
			l.drops++
			pool.Put(f) // the frame dies at the decision; recycle it
		case ToCPU:
			l.punts++
			forward := f.Meta.DstPorts != 0
			if l.cpu != nil {
				pf := f
				if forward {
					// Punt-and-forward: the CPU gets its own copy so
					// the datapath copy stays exclusively owned (the
					// frame pool recycles frames at the egress edge).
					pf = pool.Clone(f)
				}
				if !l.cpu.Push(pf) {
					// Tail-dropped punt: pf is either a clone or a
					// non-forwarded original, so nothing else owns it.
					pool.Put(pf)
				}
			} else if !forward {
				pool.Put(f) // punted nowhere and not forwarded: dead
			}
			if forward {
				l.ready = append(l.ready, f)
			}
		case Forward:
			if f.Meta.DstPorts == 0 {
				l.drops++
				pool.Put(f)
			} else {
				l.ready = append(l.ready, f)
			}
		}
		busy = true
	}

	// Collect stage, gated only on lookup-pipeline depth.
	if len(l.pending) < l.depth {
		if f, done := (collectFrame{}).collect(l.in); done {
			l.pending = append(l.pending,
				pendingLookup{f: f, readyAt: l.d.Clock().Cycle() + uint64(l.latency)})
			busy = true
		}
		if l.in.CanPop() {
			busy = true
		}
	}

	return busy || l.emit.Active() || len(l.pending) > 0 || len(l.ready) > 0 || l.in.CanPop()
}

// Reset implements hw.Resetter: an empty lookup pipeline at the default
// depth, the frames it held back in the design's pool.
func (l *OutputPortLookup) Reset() {
	pool := l.d.Pool()
	for _, p := range l.pending {
		pool.Put(p.f)
	}
	for _, f := range l.ready {
		pool.Put(f)
	}
	clear(l.pending[:cap(l.pending)])
	l.pending = l.pending[:0]
	clear(l.ready[:cap(l.ready)])
	l.ready = l.ready[:0]
	l.emit.Drop(pool)
	l.depth = defaultLookupPipelineDepth
	l.lookups, l.drops, l.punts = 0, 0, 0
}

// Counters implements hw.CounterSource.
func (l *OutputPortLookup) Counters() *hw.Counters { return &l.ctrs }
