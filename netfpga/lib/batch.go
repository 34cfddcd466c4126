package lib

// Rate declarations (hw.Rater) for the standard library modules: each
// states what its next cycles look like and leaves sizing the window to
// the design. Everything a module decides — starting a frame (pops a
// queue, bumps packet counters), a Last beat (routing, lookup dispatch,
// arbitration unlock), retiring a lookup, handing a frame to a MAC or
// DMA engine (schedules events) — is a Horizon of 1 or sits behind the
// design's own bounds: an Emitter is never advanced onto its Last beat
// and a drained stream never past a queued one.

import (
	"repro/internal/sim"
	"repro/netfpga/hw"
)

// Rates implements hw.Rater. RX streams the frame in progress; the
// design ends every window before the edge that takes the port's next
// arrival (hw.Arriver), so RX declares nothing for it. TX drains
// pipeline beats, or — holding a frame the MAC FIFO has no room for —
// stays busy and leaves txIn alone until the edge that sees the MAC's
// next pop: a MAC transmitting toward an observing tap pops by
// arithmetic, with no event to end the window.
func (m *MACAttach) Rates(w *hw.Window) {
	if m.rxEmit.Active() {
		w.Push(m.rxOut, &m.rxEmit)
	} else if m.rxq.Len() > 0 {
		w.Horizon(1) // next cycle starts a frame
	}
	switch {
	case m.txHold == nil:
		w.Drain(m.txIn)
	case m.mac.TxQueue().CanAccept(len(m.txHold.Data)):
		w.Horizon(1) // next cycle hands the frame to the MAC
	default:
		w.Busy()
		w.Hold(m.txIn)
		if at := m.mac.NextPop(); at != sim.Forever {
			w.Horizon(m.d.Clock().EdgesBefore(at))
		}
	}
}

// Rates implements hw.Rater. Locked, the arbiter relays one input and
// holds the others. Unlocked with an input waiting, the next cycle
// grants; unlocked and idle it declares nothing, so a first beat pushed
// at it finds no consumer declared and ends the window.
func (a *InputArbiter) Rates(w *hw.Window) {
	if a.locked < 0 {
		if a.pending() {
			w.Horizon(1)
		}
		return
	}
	for i, in := range a.ins {
		if i == a.locked {
			w.Relay(in, a.out)
		} else {
			w.Hold(in)
		}
	}
}

// Rates implements hw.Rater. Emit streams the frame in progress; the
// oldest pending lookup bounds the window to strictly before its
// readyAt cycle (with the decided queue full no retire can happen before
// the emitter refills, which is a decision of its own); collect drains
// while the lookup pipeline has room.
func (l *OutputPortLookup) Rates(w *hw.Window) {
	if l.emit.Active() {
		w.Push(l.out, &l.emit)
	} else if len(l.ready) > 0 {
		w.Horizon(1) // next cycle refills the emitter
	}
	if len(l.pending) > 0 || len(l.ready) > 0 {
		w.Busy()
	}
	if len(l.pending) > 0 && len(l.ready) < 2 {
		w.Horizon(int(l.pending[0].readyAt - l.d.Clock().Cycle()))
	}
	if len(l.pending) < l.depth {
		w.Drain(l.in)
	} else {
		w.Hold(l.in)
	}
}

// Rates implements hw.Rater. Enqueue drains the shared input (route
// only runs on a Last beat); each draining port streams its frame. A
// port queued behind a captured background wait is frozen until the
// release event and — as in Tick — not busy.
func (o *OutputQueues) Rates(w *hw.Window) {
	w.Drain(o.in)
	for i := range o.ports {
		p := &o.ports[i]
		if p.emit.Active() {
			w.Push(p.out, p.emit)
		} else if p.q.Len() > 0 && !o.waiting(p) {
			w.Horizon(1) // next cycle starts a frame or captures a wait
		}
	}
}

// Rates implements hw.Rater.
func (s *QueueSource) Rates(w *hw.Window) {
	if s.emit.Active() {
		w.Push(s.out, &s.emit)
	} else if s.q.Len() > 0 {
		w.Horizon(1) // next cycle starts a frame
	}
}

// Rates implements hw.Rater: the DMA twin of MACAttach, with the
// engine's queues in place of the MAC FIFO.
func (a *DMAAttach) Rates(w *hw.Window) {
	if a.emit.Active() {
		w.Push(a.toPipe, &a.emit)
	} else if a.eng.ToDevice().Len() > 0 {
		w.Horizon(1) // next cycle starts a host frame
	}
	switch {
	case a.txHold == nil:
		w.Drain(a.fromPipe)
	case a.eng.FromDevice().CanAccept(len(a.txHold.Data)):
		w.Horizon(1) // next cycle completes the device→host DMA
	default:
		w.Busy()
		w.Hold(a.fromPipe)
	}
}
