package lib

import (
	"repro/internal/serial"
	"repro/netfpga/hw"
)

// MACAttach is the nf_10g_interface analogue: it bridges one serial MAC
// into the datapath. The receive side buffers wire arrivals in a frame
// queue (the RX FIFO), stamps metadata (source port, length, ingress
// timestamp) and streams beats into the pipeline; the transmit side
// collects pipeline beats into frames and hands them to the MAC,
// stalling (backpressure) while the MAC FIFO is full.
//
// The receive side takes its MAC's arrivals itself
// (serial.MAC.PullReceiver): no event marks an arrival, and the attach
// takes each one, stamped with its arrival instant, at the first
// datapath edge that would have seen an arrival event armed at the
// frame's completion (hw.Arriver).
type MACAttach struct {
	name string
	d    *hw.Design
	mac  *serial.MAC
	port uint8

	rxq   *hw.FrameQueue
	rxOut *hw.Stream
	txIn  *hw.Stream

	rxEmit  hw.Emitter
	txHold  *hw.Frame // frame awaiting MAC tx space
	badFCS  uint64
	rxPkts  uint64
	txPkts  uint64
	rxBytes uint64
	txBytes uint64
	ctrs    hw.Counters
}

// NewMACAttach creates the adapter. rxOut carries received frames into
// the pipeline; txIn receives pipeline frames destined for the wire.
// rxFIFOBytes bounds the receive FIFO (0 means 32 KB), the drop point
// when the pipeline cannot absorb line rate.
func NewMACAttach(d *hw.Design, mac *serial.MAC, port int, rxOut, txIn *hw.Stream, rxFIFOBytes int) *MACAttach {
	if rxFIFOBytes == 0 {
		rxFIFOBytes = 32 << 10
	}
	m := &MACAttach{
		name:  mac.Name() + ".attach",
		d:     d,
		mac:   mac,
		port:  uint8(port),
		rxOut: rxOut,
		txIn:  txIn,
	}
	m.rxq = d.NewFrameQueue(mac.Name()+".rxfifo", 0, rxFIFOBytes)
	// The first five are the interface's register block, in this order.
	m.ctrs.Grow(6)
	m.ctrs.Add("rx_pkts", &m.rxPkts)
	m.ctrs.Add("tx_pkts", &m.txPkts)
	m.ctrs.Add("rx_bytes", &m.rxBytes)
	m.ctrs.Add("tx_bytes", &m.txBytes)
	m.ctrs.Add("bad_fcs", &m.badFCS)
	// Receive-FIFO overflow is traffic loss: QueueDrop.
	m.ctrs.AddCounter(m.rxq.DropCounter("rx_drops", hw.QueueDrop))
	m.ctrs.Include("mac_", mac.Counters(), nil)
	mac.PullReceiver(m.ring)
	d.AddModule(m)
	// Input conduits wake this module alone: a wire arrival or a
	// pipeline beat bound for this port re-runs the attach, not every
	// module of the design.
	d.Consume(m, m.rxq, txIn)
	return m
}

// Name implements hw.Module.
func (m *MACAttach) Name() string { return m.name }

// Resources implements hw.Module: one 10G MAC + AXIS adapter.
func (m *MACAttach) Resources() hw.Resources {
	return hw.Resources{LUTs: 3500, FFs: 5200, BRAM36: 6}
}

// ring is the MAC's doorbell: the next arrival may have changed.
func (m *MACAttach) ring() { m.d.Arrived(m) }

// receive takes a frame that arrived at at into the RX FIFO. Dropped
// frames — bad FCS or RX FIFO overflow — are dead on arrival and recycle
// straight into the design's frame pool.
func (m *MACAttach) receive(f *hw.Frame, at hw.Time, fcsOK bool) {
	if !fcsOK {
		m.badFCS++
		m.d.Pool().Put(f) // bad frames are dropped at the MAC, as configured in hw
		return
	}
	f.Meta.SrcPort = m.port
	f.Meta.Len = uint16(len(f.Data))
	f.Meta.Ingress = at
	f.Meta.Flags |= hw.FlagTimestamped
	if !m.rxq.Push(f) { // overflow counted by the queue (tail drop)
		m.d.Pool().Put(f)
	}
}

// Arrival implements hw.Arriver: the next frame on its way by
// arithmetic (serial.MAC.NextArrival).
func (m *MACAttach) Arrival() (at, armed hw.Time) { return m.mac.NextArrival() }

// Take implements hw.Arriver: the next frame, whose arrival the edge at
// now sees.
func (m *MACAttach) Take() { m.receive(m.mac.Arrival()) }

// takeArrived takes every frame that has arrived by now, as arrival
// events would have by the time anything reads the attach, and tells
// the design when the next one is due.
func (m *MACAttach) takeArrived() {
	at, _ := m.mac.NextArrival()
	if at > m.d.Now() {
		return
	}
	for ; at <= m.d.Now(); at, _ = m.mac.NextArrival() {
		m.receive(m.mac.Arrival())
	}
	m.d.Arrived(m)
}

// Tick implements hw.Module.
func (m *MACAttach) Tick() bool {
	busy := false

	// RX: stream the current frame, else start the next one. The whole
	// stage is skipped with two field checks when nothing is in flight.
	if m.rxEmit.Active() || m.rxq.Len() > 0 {
		if !m.rxEmit.Active() {
			f := m.rxq.Pop()
			m.rxEmit.Start(f)
			m.rxPkts++
			m.rxBytes += uint64(len(f.Data))
		}
		if pushed, _ := m.rxEmit.Emit(m.rxOut, m.d.BusBytes()); pushed {
			busy = true
		}
	}

	// TX: hand a completed frame to the MAC, honouring its FIFO bound.
	// (busy is implied by the return expression's CanPop and by the
	// txHold block below, so none is computed here.)
	if m.txHold == nil && m.txIn.CanPop() {
		if f, done := (collectFrame{}).collect(m.txIn); done {
			m.txHold = f
		}
	}
	if m.txHold != nil {
		if m.mac.TxQueue().CanAccept(len(m.txHold.Data)) {
			m.mac.Send(m.txHold)
			m.txPkts++
			m.txBytes += uint64(len(m.txHold.Data))
			m.txHold = nil
			busy = true
		} else {
			busy = true // waiting on MAC FIFO space
		}
	}

	return busy || m.rxEmit.Active() || m.rxq.Len() > 0 || m.txIn.CanPop()
}

// Reset implements hw.Resetter: the frame being streamed in and the one
// waiting for MAC space go back to the design's pool. The receive FIFO
// is the design's; the MAC is the device's.
func (m *MACAttach) Reset() {
	pool := m.d.Pool()
	m.rxEmit.Drop(pool)
	pool.Put(m.txHold)
	m.txHold = nil
	m.badFCS, m.rxPkts, m.txPkts, m.rxBytes, m.txBytes = 0, 0, 0, 0, 0
}

// Counters implements hw.CounterSource: the attach's own counters plus
// the MAC's as mac_*, which the list includes by pointer, so the MAC is
// settled here (serial.MAC.Settle), and the frames that have arrived by
// now are taken first.
func (m *MACAttach) Counters() *hw.Counters {
	m.mac.Settle()
	m.takeArrived()
	return &m.ctrs
}

// Registers exposes the interface counters as an AXI-Lite block, as the
// physical interface cores do.
func (m *MACAttach) Registers() *hw.RegisterFile {
	rf := hw.NewRegisterFile(m.mac.Name())
	rf.Grow(11)
	rf.AddCounters(0x00, m.ctrs.List()[:5]...)
	rf.AddRO(0x28, "link_up", func() uint32 {
		if m.mac.LinkUp() {
			return 1
		}
		return 0
	})
	return rf
}
