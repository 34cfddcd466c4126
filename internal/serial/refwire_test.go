package serial

import (
	"fmt"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// refWire is the event wire MAC's arithmetic transmitter replaced, kept
// as the reference FuzzMACWire holds it to: one direction of a link, a
// transmitter with its FIFO toward a receiver, where every frame's
// completion is an event (txDone) and every arrival another (deliver),
// each on one persistent timer. It counts what the two MACs of a link
// count for that direction.
type refWire struct {
	sim  *sim.Sim
	rate float64
	ber  float64
	prop sim.Time
	rng  *sim.Rand

	txq      *hw.FrameQueue
	txTimer  *sim.Timer
	inFlight *hw.Frame // frame currently being serialized
	free     sim.Time  // when it ends

	// inbound is the wire in flight: frames whose last bit has left the
	// transmitter but not yet arrived, drained by rxTimer. Arrival times
	// are nondecreasing (one sender, constant propagation delay), so FIFO
	// draining preserves delivery order.
	inbound wireRing
	rxTimer *sim.Timer
	rx      func(f *hw.Frame, fcsOK bool)

	// instants holds every instant an event of the wire ran at.
	instants map[sim.Time]bool

	txFrames, txBytes, txBusyPs  uint64
	rxFrames, rxBytes, fcsErrors uint64
}

// newRefWire builds the wire a MAC configured as cfg drives, with delay
// prop toward a receiver rx (nil drops the frames).
func newRefWire(s *sim.Sim, cfg Config, prop sim.Time, rx func(f *hw.Frame, fcsOK bool)) *refWire {
	if cfg.Encoding == 0 {
		cfg.Encoding = Encoding64b66b
	}
	if cfg.TxBufBytes == 0 {
		cfg.TxBufBytes = 64 << 10
	}
	w := &refWire{
		sim:      s,
		rate:     float64(cfg.Lanes) * cfg.LineGbps * cfg.Encoding,
		ber:      cfg.BER,
		prop:     prop,
		rng:      sim.NewRand(cfg.Seed ^ 0x5eeded),
		rx:       rx,
		instants: map[sim.Time]bool{},
	}
	w.txq = hw.NewFrameQueue(cfg.Name+".txq", 0, cfg.TxBufBytes)
	w.txq.OnPush(w.kick)
	w.txTimer = s.NewTimer(w.txDone)
	w.rxTimer = s.NewTimer(w.deliver)
	return w
}

// Send pushes a frame into the transmit FIFO, reporting false on
// overflow.
func (w *refWire) Send(f *hw.Frame) bool { return w.txq.Push(f) }

// kick starts the transmitter if it is idle and a frame waits: it pops
// the head and arms txTimer for its end.
func (w *refWire) kick() {
	if w.txTimer.Pending() || w.txq.Len() == 0 {
		return
	}
	f := w.txq.Pop()
	d := sim.BitTime(int64(max(len(f.Data), MinFrameBytes)+OverheadBytes)*8, w.rate)
	w.txBusyPs += uint64(d)
	w.inFlight, w.free = f, w.sim.Now()+d
	w.txTimer.ScheduleAt(w.free)
}

// txDone completes the in-flight frame: counts it, draws its bit error,
// sends it on its way to the receiver, and starts the next one.
func (w *refWire) txDone() {
	w.instants[w.sim.Now()] = true
	f := w.inFlight
	w.inFlight = nil
	w.txFrames++
	w.txBytes += uint64(len(f.Data))
	ok := true
	if w.ber > 0 {
		bits := float64(len(f.Data)+FCSBytes) * 8
		ok = w.rng.Float64() >= 1-pow1m(w.ber, bits)
	}
	w.inbound.push(wireEntry{f: f, at: w.sim.Now() + w.prop, ok: ok})
	if !w.rxTimer.Pending() {
		w.rxTimer.ScheduleAt(w.inbound.at(0).at)
	}
	w.kick()
}

// deliver completes the head frame's propagation. The timer is re-armed
// for the next frame before the receiver runs.
func (w *refWire) deliver() {
	w.instants[w.sim.Now()] = true
	e := w.inbound.pop()
	if w.inbound.n > 0 {
		w.rxTimer.ScheduleAt(w.inbound.at(0).at)
	}
	w.rxFrames++
	w.rxBytes += uint64(len(e.f.Data))
	if !e.ok {
		w.fcsErrors++
	}
	if w.rx != nil {
		w.rx(e.f, e.ok)
	}
}

// NextPop returns when the transmitter next takes a frame from its FIFO,
// Forever when the FIFO is empty.
func (w *refWire) NextPop() sim.Time {
	if w.txq.Len() == 0 || !w.txTimer.Pending() {
		return sim.Forever
	}
	return w.free
}

// next returns the wire's next event instant, Forever when it has none.
func (w *refWire) next() sim.Time {
	at := sim.Forever
	if w.txTimer.Pending() {
		at = w.free
	}
	if w.inbound.n > 0 {
		at = min(at, w.inbound.at(0).at)
	}
	return at
}

// counters prints what the transmitting and the receiving MAC count for
// the wire, in the transmitter's and receiver's Counters order.
func (w *refWire) counters() string {
	return fmt.Sprintf("tx_frames=%d tx_bytes=%d tx_drops=%d tx_busy_ps=%d rx_frames=%d rx_bytes=%d fcs_errors=%d",
		w.txFrames, w.txBytes, *w.txq.DropCounter("", hw.Count).Ptr, w.txBusyPs, w.rxFrames, w.rxBytes, w.fcsErrors)
}
