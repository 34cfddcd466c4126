// Package pcie models the PCI Express host interface of the NetFPGA
// boards: a generation/width-parameterised link with per-TLP overhead,
// and a descriptor-ring DMA engine connecting the host driver to the
// datapath. The model preserves the throughput shape that matters for the
// reference NIC experiments: small transfers are descriptor- and
// overhead-limited, large transfers approach the link's effective data
// rate, and Gen3 roughly doubles Gen2.
package pcie

import (
	"fmt"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// Gen is a PCIe generation.
type Gen int

// Supported generations.
const (
	Gen1 Gen = 1
	Gen2 Gen = 2
	Gen3 Gen = 3
)

// perLaneGbps returns the effective per-lane payload rate after line
// coding (8b/10b for Gen1/2, 128b/130b for Gen3).
func (g Gen) perLaneGbps() float64 {
	switch g {
	case Gen1:
		return 2.5 * 0.8
	case Gen2:
		return 5.0 * 0.8
	case Gen3:
		return 8.0 * 128 / 130
	}
	panic(fmt.Sprintf("pcie: unknown generation %d", g))
}

// LinkConfig parameterises a PCIe link.
type LinkConfig struct {
	Gen   Gen
	Lanes int
	// MaxPayload is the TLP payload size; 0 means 256 bytes.
	MaxPayload int
	// Latency is the one-way base latency; 0 means 500 ns.
	Latency sim.Time
}

// SUMELink returns the SUME host interface: PCIe Gen3 x8.
func SUMELink() LinkConfig { return LinkConfig{Gen: Gen3, Lanes: 8} }

// tlpOverhead is the framing+header+CRC overhead per TLP, in bytes.
const tlpOverhead = 26

// Dir is a transfer direction.
type Dir int

// Transfer directions, named from the host's perspective.
const (
	HostToDevice Dir = iota
	DeviceToHost
)

// Link is a full-duplex PCIe link with independent per-direction
// occupancy.
type Link struct {
	cfg  LinkConfig
	sim  *sim.Sim
	rate float64 // effective Gb/s per direction
	busy [2]sim.Time
	// done orders each direction's completions: transfers serialise, so
	// they land in issue order. A direction's lane is built on its first
	// transfer.
	done [2]*sim.Lane[arrival]

	transfers [2]uint64
	bytes     [2]uint64
}

// NewLink builds a link on the simulator.
func NewLink(s *sim.Sim, cfg LinkConfig) *Link {
	if cfg.Lanes <= 0 {
		panic("pcie: lanes must be positive")
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 256
	}
	if cfg.Latency == 0 {
		cfg.Latency = 500 * sim.Nanosecond
	}
	return &Link{cfg: cfg, sim: s, rate: cfg.Gen.perLaneGbps() * float64(cfg.Lanes)}
}

// arrival is what runs when a transfer's last byte lands: fn(f) for the
// DMA engine's frame moves, which would otherwise allocate a closure per
// frame to carry f.
type arrival struct {
	fn func(*hw.Frame)
	f  *hw.Frame
}

func (a arrival) land() { a.fn(a.f) }

// transfer schedules an n-byte payload in the given direction; a lands
// when the last byte arrives. Concurrent transfers in one direction
// serialise; directions are independent.
func (l *Link) transfer(dir Dir, n int, a arrival) {
	tlps := (n + l.cfg.MaxPayload - 1) / l.cfg.MaxPayload
	if tlps == 0 {
		tlps = 1
	}
	wire := int64(n + tlps*tlpOverhead)
	d := sim.BitTime(wire*8, l.rate)
	start := l.sim.Now()
	if l.busy[dir] > start {
		start = l.busy[dir]
	}
	end := start + d
	l.busy[dir] = end
	l.transfers[dir]++
	l.bytes[dir] += uint64(n)
	if l.done[dir] == nil {
		l.done[dir] = sim.NewLane(l.sim, arrival.land)
	}
	l.done[dir].Post(end+l.cfg.Latency, a)
}

// descriptor ring sizes and the engine below follow the reference NIC's
// split: a TX ring carries host frames to the datapath, an RX ring
// carries datapath frames to host buffers posted by the driver.

// EngineConfig parameterises the DMA engine.
type EngineConfig struct {
	Link LinkConfig
	// TxRing is the number of host→device descriptors; 0 means 256.
	TxRing int
	// RxRing is the number of device→host descriptors; 0 means 256.
	RxRing int
	// Pool takes back the frames the engine drops: a completed
	// host→device DMA that finds the device's queue full. nil leaves
	// them to the garbage collector.
	Pool *hw.FramePool
}

// Engine is the descriptor-ring DMA engine. The host side is driven by
// the driver (HostSend, PostRx, SetDeliver); the device side exposes two
// frame queues that the datapath's DMA-attach module moves beats
// through.
type Engine struct {
	cfg  EngineConfig
	sim  *sim.Sim
	link *Link

	// toDevice receives host frames after DMA; the datapath pops it.
	toDevice *hw.FrameQueue
	// fromDevice is filled by the datapath; the engine drains it into
	// host buffers.
	fromDevice *hw.FrameQueue

	txInFlight int
	rxFree     int // posted host rx buffers
	// txDone/rxDone are the DMA completion handlers, bound once so a
	// frame move carries no per-frame closure.
	txDone, rxDone func(*hw.Frame)
	deliver        func(f *hw.Frame)
	interrupts     uint64

	txFrames, rxFrames uint64
	rxDeferred         uint64 // frames stalled waiting for rx buffers
	ctrs               hw.Counters
}

// NewEngine builds a DMA engine and its device-side queues.
func NewEngine(s *sim.Sim, cfg EngineConfig) *Engine {
	if cfg.TxRing == 0 {
		cfg.TxRing = 256
	}
	if cfg.RxRing == 0 {
		cfg.RxRing = 256
	}
	e := &Engine{cfg: cfg, sim: s, link: NewLink(s, cfg.Link)}
	e.toDevice = hw.NewFrameQueue("dma.to_device", cfg.TxRing, 0)
	e.fromDevice = hw.NewFrameQueue("dma.from_device", cfg.RxRing, 0)
	e.fromDevice.OnPush(e.kickRx)
	e.txDone, e.rxDone = e.onTxDone, e.onRxDone
	l := e.link
	e.ctrs.Grow(10)
	e.ctrs.Add("h2d_transfers", &l.transfers[HostToDevice])
	e.ctrs.Add("h2d_bytes", &l.bytes[HostToDevice])
	e.ctrs.Add("d2h_transfers", &l.transfers[DeviceToHost])
	e.ctrs.Add("d2h_bytes", &l.bytes[DeviceToHost])
	e.ctrs.Add("tx_frames", &e.txFrames)
	e.ctrs.Add("rx_frames", &e.rxFrames)
	e.ctrs.Add("interrupts", &e.interrupts)
	e.ctrs.Add("rx_deferred", &e.rxDeferred)
	e.ctrs.AddCounter(e.toDevice.DropCounter("to_device_drops", hw.Count))
	e.ctrs.AddCounter(e.fromDevice.DropCounter("from_device_drops", hw.Count))
	return e
}

// ToDevice returns the queue of frames that have completed host→device
// DMA. The datapath's DMA-attach module pops it.
func (e *Engine) ToDevice() *hw.FrameQueue { return e.toDevice }

// FromDevice returns the queue the datapath pushes host-bound frames
// into.
func (e *Engine) FromDevice() *hw.FrameQueue { return e.fromDevice }

// SetDeliver installs the host rx completion (the MSI-X analogue).
func (e *Engine) SetDeliver(fn func(f *hw.Frame)) { e.deliver = fn }

// PostRx posts n host receive buffers (rx descriptors).
func (e *Engine) PostRx(n int) {
	e.rxFree += n
	e.kickRx()
}

// HostSend queues a frame for host→device DMA. It reports false when the
// TX ring is exhausted (the driver should back off and retry).
func (e *Engine) HostSend(f *hw.Frame) bool {
	if e.txInFlight >= e.cfg.TxRing {
		return false
	}
	e.txInFlight++
	// Descriptor fetch + payload move in one modelled transfer.
	e.link.transfer(HostToDevice, len(f.Data)+16, arrival{fn: e.txDone, f: f})
	return true
}

func (e *Engine) onTxDone(f *hw.Frame) {
	e.txInFlight--
	e.txFrames++
	// A push wakes the queue's consumer (hw.Design.Consume). A full
	// queue refuses the frame and counts the drop; the engine owns the
	// frame then, and nothing can observe which buffer it was.
	if !e.toDevice.Push(f) {
		e.cfg.Pool.Put(f)
	}
}

func (e *Engine) onRxDone(f *hw.Frame) {
	e.rxFrames++
	e.interrupts++
	if e.deliver != nil {
		e.deliver(f)
	}
}

// recycle hands back the frame a transfer in flight carries, if any.
func (e *Engine) recycle(a arrival) {
	if a.f != nil {
		e.cfg.Pool.Put(a.f)
	}
}

// TxSpace returns the number of free TX ring slots.
func (e *Engine) TxSpace() int { return e.cfg.TxRing - e.txInFlight }

// kickRx moves device frames to the host while rx buffers are posted.
func (e *Engine) kickRx() {
	for e.rxFree > 0 && e.fromDevice.Len() > 0 {
		f := e.fromDevice.Pop()
		e.rxFree--
		e.link.transfer(DeviceToHost, len(f.Data)+16, arrival{fn: e.rxDone, f: f})
	}
	if e.fromDevice.Len() > 0 && e.rxFree == 0 {
		e.rxDeferred++
	}
}

// Reset returns the engine to the state NewEngine left it in: both rings
// and the link idle, no host buffers posted (the driver posts them, see
// host.Driver.Reset), counters zero. Every frame it holds goes back to
// its pool: those queued on either side and those in a DMA transfer.
// The link's completion lanes still hold the transfers, so Reset runs
// before sim.Sim.Reset empties them.
func (e *Engine) Reset() {
	for _, l := range e.link.done {
		if l != nil {
			l.Each(e.recycle)
		}
	}
	e.link.busy = [2]sim.Time{}
	e.link.transfers, e.link.bytes = [2]uint64{}, [2]uint64{}
	e.toDevice.Reset(e.cfg.Pool)
	e.fromDevice.Reset(e.cfg.Pool)
	e.txInFlight, e.rxFree = 0, 0
	e.interrupts, e.txFrames, e.rxFrames, e.rxDeferred = 0, 0, 0, 0
}

// Counters implements hw.CounterSource: the link's counters, then the
// engine's.
func (e *Engine) Counters() *hw.Counters { return &e.ctrs }

// Stats returns the engine and link counters as a fresh map. Kept for
// the benchmark's tracer (benchmark/trace.go), which reads it; new
// readers use Counters.
func (e *Engine) Stats() map[string]uint64 { return e.ctrs.Map() }
