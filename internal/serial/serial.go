// Package serial models the high-speed serial I/O subsystem of the
// NetFPGA boards: bonded serial lanes with line-coding overhead, Ethernet
// MACs with preamble/IFG/FCS accounting, and wires with propagation delay
// and optional bit-error injection.
//
// Timing is exact at frame granularity: a frame of L bytes occupies the
// transmitter for (max(L, 60) + 4 FCS + 8 preamble + 12 IFG) * 8
// bit-times at the MAC data rate, which is the lane line rate discounted
// by the line coding (64b/66b for 10G-class serdes). This reproduces the
// line-rate ceilings the platform is evaluated against without
// simulating individual symbols.
//
// There is one transmitter, and it is arithmetic: it computes when each
// frame starts, ends and arrives, and applies that when something reads
// it (Settle), so no frame costs a completion event. What a frame's
// arrival costs depends on the receiver. An Observer — a tap that only
// counts or captures — takes each frame whenever it is read, at no
// event. A receiver that pulls its arrivals (PullReceiver: the
// datapath's MAC attach) takes each one at the first datapath edge that
// would have seen an arrival event armed at the frame's completion
// (NextArrival, sim.Clock.EdgeAfter), also at no event: an arrival on a
// clock edge is seen by that edge only when the edge was armed after the
// completion. On a 5 ns clock beside the 5 ns wire the edge before it
// armed it at the completion instant, after the completion, so it is
// seen; on a 6.25 ns or 8 ns clock it was armed earlier, so the next
// edge takes it. A receiver installed with SetReceiver runs at each
// frame's arrival instant, on one persistent timer: one event per frame.
// Every frame is longer on the wire than a clock period and than the
// propagation delay (Connect refuses a port where a minimum frame is
// not), which is what fixes those orders. Every form gives every reader
// the same values, counters, error draws and arrival stamps as an event
// per completion and per arrival would.
package serial

import (
	"fmt"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// Wire-format overheads, in bytes.
const (
	FCSBytes      = 4
	PreambleBytes = 8  // preamble + SFD
	IFGBytes      = 12 // minimum inter-frame gap
	// OverheadBytes is the per-frame wire overhead beyond the MAC frame.
	OverheadBytes = FCSBytes + PreambleBytes + IFGBytes
	// MinFrameBytes is Ethernet's minimum frame without its FCS: a MAC
	// pads a shorter frame to it.
	MinFrameBytes = 60
)

// Encoding64b66b is the payload efficiency of 64b/66b line coding.
const Encoding64b66b = 64.0 / 66.0

// Config parameterises a MAC and the serdes lanes beneath it.
type Config struct {
	Name string
	// Lanes is the number of bonded serial lanes (1 for 10G SFP+, 4 for
	// 40G, 10 for 100G CAUI-10).
	Lanes int
	// LineGbps is the per-lane line rate (10.3125 for 10G Ethernet).
	LineGbps float64
	// Encoding is the line-coding efficiency; 0 means 64b/66b.
	Encoding float64
	// TxBufBytes bounds the MAC transmit FIFO; 0 means 64 KB.
	TxBufBytes int
	// BER is the injected bit error rate (0 disables).
	BER float64
	// Seed seeds the error-injection generator.
	Seed uint64
}

// DataGbps is the port's data rate in Gb/s: its lanes' line rate less
// the line coding, 64b/66b when Encoding is 0.
func (c Config) DataGbps() float64 {
	enc := c.Encoding
	if enc == 0 {
		enc = Encoding64b66b
	}
	return float64(c.Lanes) * c.LineGbps * enc
}

// Eth10G returns the configuration of one 10GbE SFP+ port.
func Eth10G(name string) Config {
	return Config{Name: name, Lanes: 1, LineGbps: 10.3125}
}

// Eth40G returns a 4-lane 40GbE port.
func Eth40G(name string) Config {
	return Config{Name: name, Lanes: 4, LineGbps: 10.3125}
}

// Eth100G returns a 10-lane CAUI-10 100GbE port, as SUME builds from its
// 13.1G-capable serial links.
func Eth100G(name string) Config {
	return Config{Name: name, Lanes: 10, LineGbps: 10.3125}
}

// Eth1G returns one 1000BASE-T-class port (NetFPGA-1G-CML). Modelled with
// the same 64b/66b discount for uniformity.
func Eth1G(name string) Config {
	return Config{Name: name, Lanes: 1, LineGbps: 1.03125}
}

// MAC is an Ethernet MAC over bonded lanes. Frames handed to the MAC are
// wire frames without FCS; the model appends/validates the FCS
// analytically and accounts for its time. A frame shorter than
// MinFrameBytes is timed as padded to it, as a real MAC pads it on the
// wire. Padding changes timing only: Data is not rewritten (multicast
// copies share it), and tx_bytes, rx_bytes and what a tap captures
// count the bytes handed over.
//
// Reception has three forms, and none changes when a frame arrives. An
// Observer installed with SetObserver decides nothing at an arrival's
// instant: while it is installed, it is handed each frame when something
// reads either end at or after the frame's arrival (see Settle). Without
// one, a receiver installed with PullReceiver takes its arrivals itself
// (NextArrival, Arrival), at the instants an event would have delivered
// them. Without either, the receiver installed with SetReceiver runs at
// each arrival's instant, on the MAC's one receive timer.
type MAC struct {
	name string
	ber  float64
	sim  *sim.Sim
	rate float64 // MAC data rate, Gb/s

	peer *MAC
	prop sim.Time

	txq *hw.FrameQueue
	rng *sim.Rand

	rx      func(f *hw.Frame, fcsOK bool)
	bell    func()
	obs     Observer
	rxTimer *sim.Timer // armed at the next arrival toward rx

	// tx is the transmitter. due is the earliest instant at which Settle
	// has work (Forever when none).
	tx     arithTx
	due    sim.Time
	linkUp bool

	txFrames, rxFrames uint64
	txBytes, rxBytes   uint64
	fcsErrors          uint64
	txBusyPs           uint64
	ctrs               hw.Counters
}

// arithTx is the state of the transmitter: frames are popped at their
// start times, completed at their end times and handed to the peer at
// their arrival times, whenever something settles the MAC at or after
// them. sent holds the popped frames not yet handed over, each with its
// end time; its first ended have completed (counted, BER drawn), and of
// those its first arrived have arrived (counted by the peer) and wait
// there for a receiver to take them. free is when the last popped frame
// ends, so the FIFO's head starts then.
type arithTx struct {
	sent           wireRing
	free           sim.Time
	ended, arrived int32
	// size and time are frameTime's last answer.
	size int
	time sim.Time
}

// Observer receives frames at a MAC without deciding anything at their
// arrival instants: it counts or records them, and no event marks them.
type Observer interface {
	// Observe takes one frame whose last bit arrived at at, which is
	// never later than Now, in arrival order. fcsOK is as for a
	// receiver; the observer owns f.
	Observe(f *hw.Frame, at sim.Time, fcsOK bool)
}

// NewMAC builds a MAC on the simulator.
func NewMAC(s *sim.Sim, cfg Config) *MAC {
	if cfg.Lanes <= 0 || cfg.LineGbps <= 0 {
		panic("serial: invalid MAC config")
	}
	if cfg.TxBufBytes == 0 {
		cfg.TxBufBytes = 64 << 10
	}
	m := &MAC{
		name: cfg.Name,
		ber:  cfg.BER,
		sim:  s,
		rate: cfg.DataGbps(),
		rng:  sim.NewRand(cfg.Seed ^ 0x5eeded), // Reseed reseeds the same way
		tx:   arithTx{size: -1},
		due:  sim.Forever,
	}
	m.txq = hw.NewFrameQueue(cfg.Name+".txq", 0, cfg.TxBufBytes)
	m.txq.OnPush(m.kick)
	m.ctrs.Grow(7)
	m.ctrs.Add("tx_frames", &m.txFrames)
	m.ctrs.Add("rx_frames", &m.rxFrames)
	m.ctrs.Add("tx_bytes", &m.txBytes)
	m.ctrs.Add("rx_bytes", &m.rxBytes)
	m.ctrs.Add("fcs_errors", &m.fcsErrors)
	m.ctrs.AddCounter(m.txq.DropCounter("tx_drops", hw.Count))
	m.ctrs.Add("tx_busy_ps", &m.txBusyPs)
	m.rxTimer = s.NewTimer(m.receive)
	return m
}

// wireEntry is one frame on the wire, with its end time.
type wireEntry struct {
	f  *hw.Frame
	at sim.Time
	ok bool
}

// wireRing is a power-of-two FIFO of wire entries.
type wireRing struct {
	buf     []wireEntry
	head, n int32
}

func (r *wireRing) push(e wireEntry) {
	if int(r.n) == len(r.buf) {
		bigger := make([]wireEntry, max(2*len(r.buf), 16))
		for i := int32(0); i < r.n; i++ {
			bigger[i] = *r.at(i)
		}
		r.buf, r.head = bigger, 0
	}
	r.buf[(r.head+r.n)&int32(len(r.buf)-1)] = e
	r.n++
}

// at returns the i-th entry from the head.
func (r *wireRing) at(i int32) *wireEntry { return &r.buf[(r.head+i)&int32(len(r.buf)-1)] }

func (r *wireRing) pop() wireEntry {
	e := r.buf[r.head]
	r.buf[r.head] = wireEntry{}
	r.head = (r.head + 1) & int32(len(r.buf)-1)
	r.n--
	return e
}

// reset empties the ring, handing its frames back to p.
func (r *wireRing) reset(p *hw.FramePool) {
	for i := int32(0); i < r.n; i++ {
		p.Put(r.at(i).f)
	}
	clear(r.buf)
	r.head, r.n = 0, 0
}

// Connect joins two MACs with a full-duplex wire of the given propagation
// delay. Both ends must have the same aggregate rate (you cannot plug a
// 40G port into a 10G port), and a minimum frame must be longer on the
// wire than the delay and than the longest period of the simulator's
// clocks: the wire's order against clock edges rests on it (see kick
// and NextArrival). Only a clock below about 149 MHz beside a 100G port
// fails that.
func Connect(a, b *MAC, prop sim.Time) error {
	if a.rate != b.rate {
		return fmt.Errorf("serial: rate mismatch %s (%.1fG) vs %s (%.1fG)",
			a.name, a.rate, b.name, b.rate)
	}
	if w, p := a.wireTime(MinFrameBytes), max(a.sim.MaxPeriod(), prop); w <= p {
		return fmt.Errorf("serial: %s: a minimum frame takes %v on the wire, no longer than the longest clock period or the wire delay (%v)",
			a.name, w, p)
	}
	a.peer, b.peer = b, a
	a.prop, b.prop = prop, prop
	a.linkUp, b.linkUp = true, true
	a.start()
	b.start()
	return nil
}

// Reset returns the MAC to the state NewMAC left it in, unplugged and
// with its error injection reseeded with seed: nothing queued or on the
// wire, counters zero. The frames it held — queued in its FIFO, or on
// the wire toward its peer, arrived there or not, until the peer's
// receiver takes them — go back to p, the pool they were drawn from. The
// receiver and observer stay installed. The simulator disarms the
// receive timer (sim.Sim.Reset).
func (m *MAC) Reset(seed uint64, p *hw.FramePool) {
	m.rng.Seed(seed ^ 0x5eeded)
	m.peer, m.prop, m.linkUp = nil, 0, false
	m.txq.Reset(p)
	m.tx.sent.reset(p)
	m.tx.free, m.tx.ended, m.tx.arrived = 0, 0, 0
	m.due = sim.Forever
	m.txFrames, m.rxFrames, m.txBytes, m.rxBytes = 0, 0, 0, 0
	m.fcsErrors, m.txBusyPs = 0, 0
}

// Reseed restarts the MAC's error injection at seed, as NewMAC seeds
// it, and changes nothing else: frames that completed before now drew
// their errors under the old seed.
func (m *MAC) Reseed(seed uint64) {
	m.Settle()
	m.rng.Seed(seed ^ 0x5eeded)
}

// Name returns the MAC's name.
func (m *MAC) Name() string { return m.name }

// LinkUp reports whether the port is connected.
func (m *MAC) LinkUp() bool { return m.linkUp }

// TxQueue returns the MAC's transmit FIFO, settled to now. Producers
// (the datapath's MAC attach module, or test traffic sources) push
// frames into it; pushing wakes the transmitter. Its occupancy is the
// one at the instant TxQueue returns: push into it then, or call
// TxQueue again.
func (m *MAC) TxQueue() *hw.FrameQueue {
	m.Settle()
	return m.txq
}

// Send pushes a frame into the transmit FIFO, reporting false on
// overflow (counted as a drop in the queue's stats).
func (m *MAC) Send(f *hw.Frame) bool {
	m.Settle()
	return m.txq.Push(f)
}

// SetReceiver installs the reception callback in place of a pulling
// receiver. fcsOK is false when error injection corrupted the frame;
// real MACs still deliver such frames marked bad, and the attach module
// decides to drop them. Unless an observer is installed, the callback
// runs at each arrival's instant, as the MAC's receive timer fires for
// it: one event per frame.
func (m *MAC) SetReceiver(fn func(f *hw.Frame, fcsOK bool)) { m.install(fn, nil, m.obs) }

// PullReceiver installs, in place of the reception callback, a receiver
// that takes its arrivals itself (NextArrival, Arrival) unless an
// observer is installed: the arrivals wait, counted, until it takes
// them, and no event marks them. bell, its doorbell, runs whenever the
// next arrival may have changed: at a frame toward an idle wire.
func (m *MAC) PullReceiver(bell func()) { m.install(nil, bell, m.obs) }

// SetObserver installs o, which takes every arrival at this MAC while it
// is installed; nil removes it, and the receiver takes the arrivals
// after now.
func (m *MAC) SetObserver(o Observer) { m.install(m.rx, m.bell, o) }

// install changes how this MAC receives. What arrived by now goes to
// the form installed before, the rest to the new one: an observer is
// handed at once what waits untaken, and the receive timer stays armed
// only while it serves the receiver.
func (m *MAC) install(rx func(*hw.Frame, bool), bell func(), o Observer) {
	p := m.peer
	if p != nil {
		p.Settle()
	}
	m.rx, m.bell, m.obs = rx, bell, o
	if p != nil {
		p.settle()
	}
	if m.obs != nil || m.bell != nil {
		m.rxTimer.Stop()
	} else {
		m.armRx()
	}
}

// wireTime returns the transmitter occupancy of an n-byte frame, padded
// to MinFrameBytes.
func (m *MAC) wireTime(n int) sim.Time {
	return sim.BitTime(int64(max(n, MinFrameBytes)+OverheadBytes)*8, m.rate)
}

// frameTime is wireTime for a transmitting MAC: it keeps the last size
// it was asked for, so traffic of one frame size divides once.
func (m *MAC) frameTime(n int) sim.Time {
	if t := &m.tx; t.size != n {
		t.size, t.time = n, m.wireTime(n)
	}
	return m.tx.time
}

// kick runs on every push into the FIFO, which was settled before it
// (Send, TxQueue): a frame pushed behind others starts after now, and
// only one pushed into an empty FIFO may start the transmitter.
func (m *MAC) kick() {
	if m.txq.Len() == 1 {
		m.start()
	}
}

// start starts the FIFO's head, if the link is up: now, or when the
// frame the transmitter holds ends. A frame toward an idle wire rings
// the peer.
//
// A pop at a frame's end P is seen by a clock edge at P, as an event at
// P armed when the frame started would be: that was one frame time
// before P, which is longer than a clock period (Connect), and an edge
// is armed at most one period before it.
func (m *MAC) start() {
	if !m.linkUp || m.txq.Len() == 0 {
		return
	}
	idle := m.tx.sent.n == m.tx.arrived
	if now := m.sim.Now(); m.tx.free <= now {
		m.tx.free = now
		m.settle()
	} else {
		m.due = min(m.due, m.tx.free)
	}
	if idle {
		m.ring()
	}
}

// ring tells the peer that its next arrival may have changed: an
// observer needs nothing, a pulling receiver's doorbell runs, and the
// receive timer, when idle, is armed.
func (m *MAC) ring() {
	switch p := m.peer; {
	case p.obs != nil:
	case p.bell != nil:
		p.bell()
	default:
		p.armRx()
	}
}

// armRx arms the receive timer for the next arrival, unless it is
// armed: for that arrival or an earlier one.
func (m *MAC) armRx() {
	if m.rxTimer.Pending() {
		return
	}
	if at, _ := m.NextArrival(); at != sim.Forever {
		m.rxTimer.ScheduleAt(at)
	}
}

// receive runs at an arrival toward the receiver installed with
// SetReceiver. The timer is re-armed for the next arrival before the
// receiver runs, so an event the receiver schedules for that arrival's
// instant runs after it.
func (m *MAC) receive() {
	f, _, ok := m.Arrival()
	m.armRx()
	if m.rx != nil {
		m.rx(f, ok)
	}
}

// complete counts a frame whose last bit left and draws its bit error:
// it reports whether the FCS survives.
func (m *MAC) complete(f *hw.Frame) bool {
	m.txFrames++
	m.txBytes += uint64(len(f.Data))
	// Error injection: probability one of the frame's wire bits flipped.
	if m.ber > 0 {
		bits := float64(len(f.Data)+FCSBytes) * 8
		if m.rng.Float64() < 1-pow1m(m.ber, bits) {
			return false
		}
	}
	return true
}

// Settle brings the transmitter up to now: it pops every frame whose
// start (the later of its push and its predecessor's end) is at or
// before now, completes every frame whose end is, and hands the peer
// every frame whose arrival (end plus propagation) is. Every reader of
// what those change settles first — TxQueue, Send, Counters and the
// receiving end's own reads — so a read sees what an event per frame
// would have left by then. It costs a comparison when nothing is due.
func (m *MAC) Settle() {
	if m.due <= m.sim.Now() {
		m.settle()
	}
}

// settle is Settle past its fast path.
func (m *MAC) settle() {
	now, t := m.sim.Now(), &m.tx
	for t.free <= now && m.txq.Len() > 0 {
		f := m.txq.Pop()
		d := m.frameTime(len(f.Data))
		m.txBusyPs += uint64(d)
		t.free += d
		t.sent.push(wireEntry{f: f, at: t.free})
	}
	for ; t.ended < t.sent.n; t.ended++ {
		e := t.sent.at(t.ended)
		if e.at > now {
			break
		}
		e.ok = m.complete(e.f)
	}
	for ; t.arrived < t.ended; t.arrived++ {
		e := t.sent.at(t.arrived)
		if e.at+m.prop > now {
			break
		}
		m.peer.count(e.f, e.ok)
	}
	if o := m.peer.obs; o != nil {
		for ; t.arrived > 0; t.arrived-- {
			e := t.sent.pop()
			t.ended--
			o.Observe(e.f, e.at+m.prop, e.ok)
		}
	}
	m.due = sim.Forever
	if t.arrived < t.ended {
		m.due = t.sent.at(t.arrived).at + m.prop
	}
	if t.ended < t.sent.n {
		m.due = min(m.due, t.sent.at(t.ended).at)
	}
	if m.txq.Len() > 0 {
		m.due = min(m.due, t.free)
	}
}

// NextArrival returns when the next frame toward this MAC that its
// receiver has not taken arrives, and when its last bit left the peer;
// Forever for both when no frame is on its way or an observer takes
// them.
//
// The arrival at is what an arrival event armed at the frame's
// completion would be armed for, and end is when it would be armed. The
// completion itself would be armed when the frame started, more than a
// clock period and more than the propagation delay before end (Connect),
// so it runs before any clock edge armed at end, and before the previous
// frame's arrival event could arm the arrival instead
// (sim.Clock.EdgeAfter).
func (m *MAC) NextArrival() (at, end sim.Time) {
	p := m.peer
	if m.obs != nil || p == nil {
		return sim.Forever, sim.Forever
	}
	p.Settle()
	switch t := &p.tx; {
	case t.sent.n > 0:
		end = t.sent.at(0).at
	case p.txq.Len() > 0: // settled: the head starts after now
		end = t.free + p.frameTime(len(p.txq.At(0).Data))
	default:
		return sim.Forever, sim.Forever
	}
	return end + m.prop, end
}

// Arrival takes the next frame toward this MAC, which must have arrived:
// NextArrival reports it at or before now. It returns the frame, its
// arrival instant and whether its FCS survived; the receiver owns f.
func (m *MAC) Arrival() (f *hw.Frame, at sim.Time, fcsOK bool) {
	m.peer.Settle()
	t := &m.peer.tx
	if t.arrived == 0 {
		panic("serial: " + m.name + ": Arrival before the next frame arrived")
	}
	e := t.sent.pop()
	t.arrived--
	t.ended--
	return e.f, e.at + m.prop, e.ok
}

// NextPop returns when the transmitter next takes a frame from its FIFO:
// the end of the frame it is serializing, or Forever when its FIFO is
// empty or its link down. A full FIFO gains room no earlier.
func (m *MAC) NextPop() sim.Time {
	if m.txq.Len() == 0 || !m.linkUp {
		return sim.Forever
	}
	return m.tx.free
}

// WireTail returns when the last frame the transmitter holds, queued or
// on the wire, reaches the peer, or 0 when it holds none that has not
// arrived. A drain runs on to that instant, which no event need mark.
func (m *MAC) WireTail() sim.Time {
	if !m.linkUp || m.txq.Len() == 0 && m.tx.sent.n == m.tx.arrived {
		return 0
	}
	end := m.tx.free
	for i := 0; i < m.txq.Len(); i++ {
		end += m.frameTime(len(m.txq.At(i).Data))
	}
	return end + m.prop
}

// count counts a frame arriving at this MAC.
func (m *MAC) count(f *hw.Frame, ok bool) {
	m.rxFrames++
	m.rxBytes += uint64(len(f.Data))
	if !ok {
		m.fcsErrors++
	}
}

// pow1m computes (1-p)^n for tiny p without math.Pow's cost.
func pow1m(p, n float64) float64 {
	// For p*n << 1, (1-p)^n ≈ exp(-p*n) ≈ 1 - p*n. The float64
	// conversions round each product before the add or subtract that
	// follows, so arm64 cannot fuse the two and every platform gets the
	// same result.
	x := float64(p * n)
	if x > 0.5 {
		// Fall back to an iterative square-and-multiply-free approx:
		// exp(-x) via its series is fine at these magnitudes.
		sum, term := 1.0, 1.0
		for i := 1; i < 30; i++ {
			term = float64(term * (-x / float64(i)))
			sum += term
		}
		if sum < 0 {
			sum = 0
		}
		return sum
	}
	return 1 - x
}

// FCSErrors returns the number of received frames that failed the FCS
// check.
func (m *MAC) FCSErrors() uint64 {
	m.sync()
	return m.fcsErrors
}

// sync settles both directions of the MAC's wire: its own transmitter
// and its peer's, whose frames this MAC counts as they arrive.
func (m *MAC) sync() {
	m.Settle()
	if m.peer != nil {
		m.peer.Settle()
	}
}

// Counters implements hw.CounterSource, settled to now. A view that
// includes the list by pointer settles the MAC itself (lib.MACAttach).
func (m *MAC) Counters() *hw.Counters {
	m.sync()
	return &m.ctrs
}

// Stats returns the MAC counters as a fresh map. Kept for the
// benchmark's tracer (benchmark/trace.go), which reads it; new readers
// use Counters.
func (m *MAC) Stats() map[string]uint64 { return m.Counters().Map() }
