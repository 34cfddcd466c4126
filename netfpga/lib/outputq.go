package lib

import "repro/netfpga/hw"

// OutputQueues is the reference designs' BRAM output-queue stage: it
// collects frames from the lookup stage, replicates multicast frames, and
// queues each copy on its destination port's store-and-forward queue.
// Every destination drains independently at one beat per cycle; a full
// queue tail-drops, which is where line-rate overload becomes loss.
type OutputQueues struct {
	name string
	d    *hw.Design
	in   *hw.Stream

	ports []oqPort
	bits  []int // configured destination bit positions

	// bg is the design's hybrid-fidelity coupler: each enqueued frame
	// captures the clear-time of the background backlog it arrived
	// behind and waits for it before draining. nil in full fidelity,
	// where every coupling branch below is dead code.
	bg hw.BackgroundCoupler

	inPkts uint64
	ctrs   hw.Counters
}

type oqPort struct {
	bit  int
	q    *hw.FrameQueue
	out  *hw.Stream
	emit *hw.Emitter
	pkts uint64

	// rels (hybrid only) parallels q: rels[i] is the background
	// release captured when q's i-th frame was enqueued — the
	// clear-time of the backlog pending at that instant, 0 for a free
	// wire. Captured once per frame, never extended: background
	// admitted later conceptually queues behind the frame. Releases
	// are non-decreasing in enqueue order (the model's backlog
	// clear-time is monotone), so the head entry is always the
	// earliest outstanding wait.
	rels []hw.Time
}

// PortQueueBytes is the default per-port buffer (matching the reference
// designs' BRAM allocation of ~16 maximum frames per port).
const PortQueueBytes = 24 << 10

// NewOutputQueues creates the stage. outs maps destination bit positions
// (hw.PortMask / hw.HostPortMask bit indices) to output streams;
// queueBytes bounds each per-port queue (0 means PortQueueBytes).
func NewOutputQueues(d *hw.Design, in *hw.Stream, outs map[int]*hw.Stream, queueBytes int) *OutputQueues {
	if queueBytes == 0 {
		queueBytes = PortQueueBytes
	}
	oq := &OutputQueues{name: "output_queues", d: d, in: in}
	// Deterministic port order: ascending bit position.
	for bit := 0; bit < 32; bit++ {
		out, ok := outs[bit]
		if !ok {
			continue
		}
		oq.ports = append(oq.ports, oqPort{
			bit:  bit,
			q:    d.NewFrameQueue(oqNames.At(bit), 0, queueBytes),
			out:  out,
			emit: &hw.Emitter{},
		})
		oq.bits = append(oq.bits, bit)
	}
	if len(oq.ports) == 0 {
		panic("lib: output queues need at least one port")
	}
	// Per port: pkts, drops, highwater — in that order, which Registers
	// relies on.
	oq.ctrs.Grow(1 + 3*len(oq.ports))
	oq.ctrs.Add("in_pkts", &oq.inPkts)
	for i := range oq.ports {
		p := &oq.ports[i]
		oq.ctrs.Add(portPktsNames.At(p.bit), &p.pkts)
		oq.ctrs.AddCounter(p.q.DropCounter(portDropsNames.At(p.bit), hw.QueueDrop))
		oq.ctrs.AddCounter(p.q.HighWaterCounter(portHighwtrNames.At(p.bit)))
	}
	d.AddModule(oq)
	d.Consume(oq, in)
	for i := range oq.ports {
		d.Consume(oq, oq.ports[i].q)
	}
	if bc := d.Background(); bc != nil {
		oq.bg = bc
		w := d.Waker(oq)
		for i := range oq.ports {
			bc.CouplePort(oq.ports[i].bit, w)
		}
	}
	return oq
}

// blocked reports whether a port's head frame is still inside its
// captured background wait, arming the release wake when it is. It may
// schedule an event, so only the per-cycle Tick drain calls it; Rates
// asks the pure waiting instead. A blocked port does not start a new
// frame and bounds no window: like a MACAttach txHold stall, only a
// foreign event (the armed release) can unblock it, and that event ends
// any window anyway.
func (o *OutputQueues) blocked(p *oqPort) bool {
	if o.bg == nil || len(p.rels) == 0 {
		return false
	}
	if rel := p.rels[0]; rel > o.d.Now() {
		o.bg.WaitUntil(p.bit, rel)
		return true
	}
	n := copy(p.rels, p.rels[1:])
	p.rels = p.rels[:n]
	return false
}

// waiting is the pure form of blocked for Rates: true while the head
// frame's captured release is unexpired. Frames are only enqueued on
// per-cycle Ticks (no window reaches a Last beat), and the same Tick's
// drain stage parks on the wait and arms the
// wake, so a true answer here always has the release event pending —
// the clock can gate or batch freely and still come back in time.
func (o *OutputQueues) waiting(p *oqPort) bool {
	return o.bg != nil && len(p.rels) > 0 && p.rels[0] > o.d.Now()
}

// Name implements hw.Module.
func (o *OutputQueues) Name() string { return o.name }

// Resources implements hw.Module: BRAM dominated by the queue memories.
func (o *OutputQueues) Resources() hw.Resources {
	bram := 0
	for _, p := range o.ports {
		bram += hw.BRAMForBytes(24 << 10)
		_ = p
	}
	return hw.Resources{LUTs: 2600 + 700*len(o.ports), FFs: 3200 + 900*len(o.ports), BRAM36: bram}
}

// Tick implements hw.Module.
func (o *OutputQueues) Tick() bool {
	busy := false

	// Enqueue stage: one beat per cycle from the shared input.
	if f, done := (collectFrame{}).collect(o.in); done {
		o.inPkts++
		o.route(f)
		busy = true
	}
	if o.in.CanPop() {
		busy = true
	}

	// Drain stage: every port moves one beat per cycle. Idle ports —
	// nothing queued, nothing mid-emission — fall through with two field
	// checks and no calls; with eight configured ports and typically one
	// or two active, this loop is the stage's hot path.
	bus := o.d.BusBytes()
	for i := range o.ports {
		p := &o.ports[i]
		if !p.emit.Active() {
			if p.q.Len() == 0 {
				continue
			}
			if o.blocked(p) {
				// The head frame is inside its captured background
				// wait: it holds, and the port deliberately does NOT
				// count as busy — the clock may gate off, and the
				// release event blocked just armed wakes this module
				// exactly when the wait expires.
				continue
			}
			p.emit.Start(p.q.Pop())
			p.pkts++
		}
		if pushed, _ := p.emit.Emit(p.out, bus); pushed {
			busy = true
		}
		if p.emit.Active() || p.q.Len() > 0 {
			busy = true
		}
	}
	return busy
}

// route replicates f to every configured destination in its mask.
// The last matching destination receives the original frame; earlier
// ones receive zero-copy sharers (FramePool.ShareClone): every copy is
// its own Frame with independent metadata, but all of them reference
// the same frozen Data — frames are never rewritten past the OQ stage,
// so multicast replication moves no bytes and allocates nothing in
// steady state. The pool's refcount releases the buffer when the last
// copy leaves the device (or is tail-dropped here: the queue counted
// the drop and nothing else references the copy).
func (o *OutputQueues) route(f *hw.Frame) {
	mask := f.Meta.DstPorts
	last := -1
	for i := range o.ports {
		if mask&(1<<uint(o.ports[i].bit)) != 0 {
			last = i
		}
	}
	if last < 0 {
		o.d.Pool().Put(f) // no configured destination: the frame dies here
		return
	}
	pool := o.d.Pool()
	for i := 0; i <= last; i++ {
		p := &o.ports[i]
		if mask&(1<<uint(p.bit)) == 0 {
			continue
		}
		copyF := f
		if i != last {
			copyF = pool.ShareClone(f)
		}
		copyF.Meta.DstPorts = 1 << uint(p.bit)
		if !p.q.Push(copyF) {
			pool.Put(copyF)
		} else if o.bg != nil {
			// Capture the frame's background wait at enqueue: the
			// clear-time of the backlog it arrived behind. Route runs
			// on a per-cycle Tick (no window reaches a Last beat), so
			// the capture lands on the exact cycle it would have
			// per-cycle.
			p.rels = append(p.rels, o.bg.Release(p.bit))
		}
	}
}

// Reset implements hw.Resetter: each port's streaming frame goes back
// to the design's pool. The per-port queues are the design's.
func (o *OutputQueues) Reset() {
	o.inPkts = 0
	for i := range o.ports {
		p := &o.ports[i]
		p.emit.Drop(o.d.Pool())
		p.pkts = 0
		p.rels = p.rels[:0]
	}
}

// Counters implements hw.CounterSource: per-port packets, drops and
// peak depth.
func (o *OutputQueues) Counters() *hw.Counters { return &o.ctrs }

// Registers exposes the queue counters: in_pkts, then per port the
// 64-bit packet count, the drop count and the current depth in bytes.
func (o *OutputQueues) Registers() *hw.RegisterFile {
	rf := hw.NewRegisterFile("output_queues")
	rf.Grow(2 + 4*len(o.ports))
	cs := o.ctrs.List()
	rf.AddCounters(0x00, cs[0])
	for i := range o.ports {
		q := o.ports[i].q
		base := uint32(0x10 + i*0x10)
		rf.AddCounters(base, cs[1+3*i])
		rf.AddCounter32(base+8, cs[2+3*i])
		rf.AddRO(base+12, portDepthNames.At(o.ports[i].bit), func() uint32 { return uint32(q.Bytes()) })
	}
	return rf
}
