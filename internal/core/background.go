package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// Fidelity values for Options.Fidelity.
const (
	// FidelityFull is the default: every frame is simulated
	// cycle-accurately. "" means the same thing.
	FidelityFull = "full"
	// FidelityHybrid simulates foreground traffic cycle-accurately and
	// background traffic through the analytic Background model.
	FidelityHybrid = "hybrid"
)

// bgQueueBytes mirrors the reference designs' per-port output-queue
// allocation (lib.PortQueueBytes): background admission sees the same
// buffer bound foreground frames do, so overload starts dropping at
// comparable load points in either fidelity.
const bgQueueBytes = 24 << 10

// bgWireOverhead is the per-frame wire overhead (preamble + SFD + IFG +
// FCS) charged in service-time math, matching the 24-byte convention
// used for wire pacing everywhere else in the tree.
const bgWireOverhead = 24

// bgBatch is one admitted arrival aggregate in a port's service FIFO:
// frames/bytes offered together in one clock window, finishing their
// wire time at doneAt.
type bgBatch struct {
	frames, bytes uint64
	doneAt        hw.Time
}

// bgPort is the per-egress-port state of the Background model.
type bgPort struct {
	rate float64 // line rate in Gb/s

	// fifo/head is the service queue of admitted batches; pending*
	// aggregates what is still in flight. highwater tracks the peak
	// pending occupancy in bytes — the model's analogue of the output
	// queue's highwater gauge.
	fifo          []bgBatch
	head          int
	pendingFrames uint64
	pendingBytes  uint64
	highwater     uint64

	// wake is the coupled queue stage's; the zero Waker means uncoupled.
	wake hw.Waker

	// relTm wakes the coupled queue stage when a WaitUntil deadline —
	// the Release clear-time a foreground frame captured at enqueue —
	// expires.
	relTm *sim.Timer

	// Conservation counters: offered == delivered + dropped holds
	// exactly (frames and bytes) whenever the FIFO is drained.
	offeredFrames, offeredBytes     uint64
	deliveredFrames, deliveredBytes uint64
	droppedFrames, droppedBytes     uint64
	ctrs                            hw.Counters
}

// Background is the hybrid-fidelity analytic traffic model: background
// frames never enter the cycle-accurate datapath. Instead a measure
// offers per-egress-port (frames, bytes) aggregates, admission is a
// closed-form cut against the same per-port buffer bound the real
// output queues enforce, and each admitted batch is given its wire
// completion time at the port's line rate. Service is arithmetic: the
// model schedules no event of its own. A batch retires when something
// reads the model at or after its completion (settle: Offer, Totals,
// Counters), and Device.RunUntilIdle runs on to the last
// completion before it calls a device idle, so a drain ends where an
// event per completion would have ended it. The model implements
// hw.BackgroundCoupler so admitted backlog occupies the egress wire
// from the foreground datapath's point of view: foreground frames
// queue behind it and their latency percentiles see realistic
// contention; the release wake that coupling arms is its one timer.
//
// Counters are exactly conserved by construction: every offered frame
// and byte is split between admitted and dropped at Offer time, and
// every admitted batch is delivered once its completion time has
// passed, so after a drain offered == delivered + dropped holds per
// port with no rounding.
type Background struct {
	s     *sim.Sim
	ports []bgPort
	ctrs  hw.Counters
}

// bgPortPrefixes are the per-port counter name prefixes of the model's
// snapshot block.
var bgPortPrefixes = hw.NewNameTable("port%d_", hw.MaxPorts)

// NewBackground builds the model for a board: one service queue per
// front-panel port at that port's line rate.
func NewBackground(s *sim.Sim, board BoardSpec) *Background {
	bg := &Background{s: s, ports: make([]bgPort, board.Ports)}
	for i := range bg.ports {
		p := &bg.ports[i]
		p.rate = board.PortRate(i)
		idx := i
		p.relTm = s.NewTimer(func() {
			if w := bg.ports[idx].wake; w != (hw.Waker{}) {
				w.Wake()
			}
		})
		p.ctrs.Grow(8)
		p.ctrs.Add("offered_frames", &p.offeredFrames)
		p.ctrs.Add("offered_bytes", &p.offeredBytes)
		p.ctrs.Add("delivered_frames", &p.deliveredFrames)
		p.ctrs.Add("delivered_bytes", &p.deliveredBytes)
		p.ctrs.Add("dropped_frames", &p.droppedFrames)
		p.ctrs.Add("dropped_bytes", &p.droppedBytes)
		p.ctrs.Add("pending_bytes", &p.pendingBytes)
		p.ctrs.Add("highwater", &p.highwater)
		// A port exports its block only once it has been offered traffic.
		bg.ctrs.Include(bgPortPrefixes.At(i), &p.ctrs, &p.offeredFrames)
	}
	return bg
}

// CouplePort implements hw.BackgroundCoupler: w is woken (from a
// simulation event) whenever a WaitUntil deadline for port bit
// expires, so a parked queue stage re-arms exactly when its head
// frame's wait ends.
func (bg *Background) CouplePort(bit int, w hw.Waker) {
	if bit < 0 || bit >= len(bg.ports) {
		return // host/DMA bits carry no background traffic
	}
	bg.ports[bit].wake = w
}

// Release implements hw.BackgroundCoupler: the clear-time of the
// newest batch pending on port bit — the moment the wire frees for a
// foreground frame enqueued this instant — or 0 when the port's
// backlog is empty or retires now. Pure: safe from any context,
// including hw.Rater.Rates.
func (bg *Background) Release(bit int) hw.Time {
	if bit < 0 || bit >= len(bg.ports) {
		return 0
	}
	p := &bg.ports[bit]
	if p.pendingBytes == 0 {
		return 0
	}
	rel := p.fifo[len(p.fifo)-1].doneAt
	if rel <= bg.s.Now() {
		return 0 // retired by now; the next settle clears it
	}
	return rel
}

// WaitUntil implements hw.BackgroundCoupler: arm port bit's wake for
// time t. Re-arming with a later deadline is allowed (the queue stage
// parks on its head frame's release, and releases are non-decreasing
// in enqueue order). Tick-edge only: schedules an event.
func (bg *Background) WaitUntil(bit int, t hw.Time) {
	if bit < 0 || bit >= len(bg.ports) {
		return
	}
	bg.ports[bit].relTm.ScheduleAt(t)
}

// Offer admits one arrival aggregate — frames frames totalling bytes
// bytes — for egress port. Admission is cut against the port buffer's
// free space, proportionally by mean frame size; the admitted batch is
// queued for wire service and the remainder is dropped immediately.
// Returns the admitted counts.
func (bg *Background) Offer(port int, frames, bytes uint64) (admitFrames, admitBytes uint64) {
	if port < 0 || port >= len(bg.ports) {
		panic(fmt.Sprintf("core: background offer to port %d of %d", port, len(bg.ports)))
	}
	if frames == 0 {
		return 0, 0
	}
	p := &bg.ports[port]
	p.settle(bg.s.Now()) // headroom reads pendingBytes
	p.offeredFrames += frames
	p.offeredBytes += bytes
	admitFrames, admitBytes = frames, bytes
	if headroom := uint64(bgQueueBytes) - p.pendingBytes; admitBytes > headroom {
		// Proportional cut at the mean frame size of the aggregate:
		// admitBytes = bytes*admitFrames/frames <= headroom, and the
		// dropped remainder is exact in both units.
		admitFrames = frames * headroom / bytes
		admitBytes = bytes * admitFrames / frames
	}
	p.droppedFrames += frames - admitFrames
	p.droppedBytes += bytes - admitBytes
	if admitFrames == 0 {
		return 0, 0
	}
	start := bg.s.Now()
	if len(p.fifo) > p.head {
		if last := p.fifo[len(p.fifo)-1].doneAt; last > start {
			start = last
		}
	}
	bits := int64(admitBytes+admitFrames*bgWireOverhead) * 8
	b := bgBatch{frames: admitFrames, bytes: admitBytes, doneAt: start + sim.BitTime(bits, p.rate)}
	p.fifo = append(p.fifo, b)
	p.pendingFrames += admitFrames
	p.pendingBytes += admitBytes
	if p.pendingBytes > p.highwater {
		p.highwater = p.pendingBytes
	}
	return admitFrames, admitBytes
}

// settle retires every batch whose wire time has elapsed by now. It
// wakes nothing: a foreground frame held behind the backlog waits for
// the release it captured at enqueue, and OutputQueues arms that wake
// itself (WaitUntil). The release is never later than the drain of the
// backlog it was captured against, so a drain finds the coupled queue
// stage already woken or with nothing to send.
func (p *bgPort) settle(now hw.Time) {
	for p.head < len(p.fifo) && p.fifo[p.head].doneAt <= now {
		b := p.fifo[p.head]
		p.fifo[p.head] = bgBatch{}
		p.head++
		p.deliveredFrames += b.frames
		p.deliveredBytes += b.bytes
		p.pendingFrames -= b.frames
		p.pendingBytes -= b.bytes
	}
	if p.head == len(p.fifo) {
		p.fifo = p.fifo[:0]
		p.head = 0
	} else if p.head > len(p.fifo)/2 {
		n := copy(p.fifo, p.fifo[p.head:])
		p.fifo = p.fifo[:n]
		p.head = 0
	}
}

// settle retires, on every port, each batch complete by now.
func (bg *Background) settle(now hw.Time) {
	for i := range bg.ports {
		bg.ports[i].settle(now)
	}
}

// tail returns the last completion time pending on any port, or 0 when
// no batch is pending.
func (bg *Background) tail() hw.Time {
	var t hw.Time
	for i := range bg.ports {
		if p := &bg.ports[i]; p.head < len(p.fifo) {
			t = max(t, p.fifo[len(p.fifo)-1].doneAt)
		}
	}
	return t
}

// Reset returns the model to the state NewBackground left it in: no
// backlog, counters zero. The coupled wakes stay; the simulator disarms
// the release timers (sim.Sim.Reset).
func (bg *Background) Reset() {
	for i := range bg.ports {
		p := &bg.ports[i]
		p.fifo, p.head = p.fifo[:0], 0
		p.pendingFrames, p.pendingBytes, p.highwater = 0, 0, 0
		p.offeredFrames, p.offeredBytes = 0, 0
		p.deliveredFrames, p.deliveredBytes = 0, 0
		p.droppedFrames, p.droppedBytes = 0, 0
	}
}

// Totals aggregates the conservation counters across every port.
func (bg *Background) Totals() (offeredF, offeredB, deliveredF, deliveredB, droppedF, droppedB uint64) {
	bg.settle(bg.s.Now())
	for i := range bg.ports {
		p := &bg.ports[i]
		offeredF += p.offeredFrames
		offeredB += p.offeredBytes
		deliveredF += p.deliveredFrames
		deliveredB += p.deliveredBytes
		droppedF += p.droppedFrames
		droppedB += p.droppedBytes
	}
	return
}

// HighWater returns a port's peak background occupancy in bytes. It
// needs no settle: the peak moves only in Offer, after Offer's own.
func (bg *Background) HighWater(port int) uint64 { return bg.ports[port].highwater }

// Ports returns the number of modeled egress ports.
func (bg *Background) Ports() int { return len(bg.ports) }

// Counters implements hw.CounterSource: port<N>_<counter> for every
// port that saw offered traffic, settled to now.
func (bg *Background) Counters() *hw.Counters {
	bg.settle(bg.s.Now())
	return &bg.ctrs
}
