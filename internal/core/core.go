// Package core is the gonetfpga platform engine: it instantiates a board
// (FPGA datapath clock + design, port MACs, PCIe DMA, memories, storage),
// binds the simulated host driver, and manages the device lifecycle. The
// public netfpga package is a thin facade over this engine.
//
// A device runs through one call, sim.Sim.Run: RunFor and RunUntilIdle
// only choose its deadline, event budget and idle floor. How far a run
// gets before something outside must be looked at is decided there and
// in sim.Clock.Bound, nowhere else; the batch size and the frame windows
// behind it are fixed, and the per-edge reference they are tested
// against is reached through dev.Clock.SetBatch(1) and
// dev.Dsn.SetFrameBurst(1).
package core

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/netfpga/hw"
)

// BoardSpec describes one NetFPGA platform generation.
type BoardSpec struct {
	Name        string
	Description string
	FPGA        hw.FPGA
	// Ports is the number of front-panel ports.
	Ports int
	// PortConfig builds the MAC configuration of port i.
	PortConfig func(i int) serial.Config
	// PCIe is the host link; Lanes == 0 means no host interface.
	PCIe pcie.LinkConfig
	// Memory parts on the board.
	SRAM []mem.SRAMConfig
	DRAM []mem.DRAMConfig
	// Storage devices (SUME: MicroSD + 2x SATA).
	Storage []storage.Config
	// BusBytes and ClockMHz are the default datapath parameters for
	// designs targeting this board.
	BusBytes int
	ClockMHz float64
	// Standalone indicates the board can operate without a PCIe host.
	Standalone bool
}

// PortRate returns the data rate of port i in Gb/s.
func (b BoardSpec) PortRate(i int) float64 {
	cfg := b.PortConfig(i)
	enc := cfg.Encoding
	if enc == 0 {
		enc = serial.Encoding64b66b
	}
	return float64(cfg.Lanes) * cfg.LineGbps * enc
}

// TotalPortGbps returns the aggregate front-panel bandwidth.
func (b BoardSpec) TotalPortGbps() float64 {
	var sum float64
	for i := 0; i < b.Ports; i++ {
		sum += b.PortRate(i)
	}
	return sum
}

// Device is an instantiated board running one design.
type Device struct {
	Board BoardSpec
	Sim   *sim.Sim
	Clock *sim.Clock
	Dsn   *hw.Design

	MACs   []*serial.MAC
	Engine *pcie.Engine
	Regs   *hw.AddressMap
	Driver *host.Driver
	SRAMs  []*mem.SRAM
	DRAMs  []*mem.DRAM
	Disks  []*storage.BlockDev

	taps   []*PortTap
	agents []Agent
	// everyTimers counts the perpetual timers Every has armed; the
	// device is idle when nothing else is pending.
	everyTimers int

	// regNext is the next free mount base for auto-mounted blocks.
	regNext uint32

	// bg is the hybrid-fidelity analytic traffic model; nil in full
	// fidelity, where no hybrid branch anywhere can execute.
	bg *Background

	// sealed is what Seal recorded beyond the simulator, the design and
	// the register map: whether the device was sealed with no tap plugged
	// in, and its agent bookkeeping.
	sealed struct {
		ok                  bool
		agents, everyTimers int
	}
}

// Options tune device instantiation.
type Options struct {
	// BusBytes overrides the board's default datapath width.
	BusBytes int
	// ClockMHz overrides the board's default datapath clock.
	ClockMHz float64
	// PortBER injects a bit error rate on every port's wire.
	PortBER float64
	// Seed seeds stochastic elements (error injection).
	Seed uint64
	// NoHost omits the PCIe engine and driver (standalone operation).
	NoHost bool
	// Fidelity selects the execution mode: "" or FidelityFull simulates
	// every frame cycle-accurately (bit-exact with all prior releases);
	// FidelityHybrid installs the analytic Background model, and
	// measures route background-tagged traffic through it instead of
	// the datapath. This knob CHANGES results — hybrid runs are
	// golden-digested separately.
	Fidelity string
}

// NewDevice instantiates a board.
func NewDevice(board BoardSpec, opts Options) *Device {
	bus := opts.BusBytes
	if bus == 0 {
		bus = board.BusBytes
	}
	clkMHz := opts.ClockMHz
	if clkMHz == 0 {
		clkMHz = board.ClockMHz
	}
	s := sim.New()
	clk := s.NewClockMHz("datapath", clkMHz)
	d := &Device{
		Board:   board,
		Sim:     s,
		Clock:   clk,
		Dsn:     hw.NewDesign(board.Name, clk, bus),
		Regs:    hw.NewAddressMap(),
		regNext: 0x0000,
	}
	switch opts.Fidelity {
	case "", FidelityFull:
		// Cycle-accurate everywhere; no coupler is installed, so every
		// hybrid branch in the datapath is dead code.
	case FidelityHybrid:
		d.bg = NewBackground(s, board)
		d.Dsn.SetBackground(d.bg)
	default:
		panic(fmt.Sprintf("core: unknown fidelity %q", opts.Fidelity))
	}
	for i := 0; i < board.Ports; i++ {
		cfg := board.PortConfig(i)
		cfg.BER = opts.PortBER
		cfg.Seed = portSeed(opts.Seed, i)
		d.MACs = append(d.MACs, serial.NewMAC(s, cfg))
	}
	d.taps = make([]*PortTap, board.Ports)
	if board.PCIe.Lanes > 0 && !opts.NoHost {
		d.Engine = pcie.NewEngine(s, pcie.EngineConfig{Link: board.PCIe})
		d.Driver = host.NewDriver(board.Name+".nf0", d.Engine, d.Regs, d.Dsn.Pool(), s.Now)
	}
	for _, c := range board.SRAM {
		d.SRAMs = append(d.SRAMs, mem.NewSRAM(s, c))
	}
	for _, c := range board.DRAM {
		d.DRAMs = append(d.DRAMs, mem.NewDRAM(s, c))
	}
	for _, c := range board.Storage {
		d.Disks = append(d.Disks, storage.New(s, c))
	}
	return d
}

// portSeed is port i's error-injection seed under the device seed.
func portSeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 }

// Seal marks the device's current state — NewDevice plus a project's
// Build, before any traffic — as the state Reset returns to: the
// simulator's armed timers and clocks, the design's shape, every plain
// register's value, the agents started so far.
func (d *Device) Seal() {
	d.Sim.Seal()
	d.Dsn.Seal()
	d.Regs.Seal()
	d.sealed.ok = true
	for _, t := range d.taps {
		if t != nil {
			d.sealed.ok = false
		}
	}
	d.sealed.agents, d.sealed.everyTimers = len(d.agents), d.everyTimers
}

// Reset returns a sealed device to the state Seal recorded, reseeded
// with seed: a run on it is bit-identical to the same run on NewDevice
// with that seed plus the same Build. It is the soft reset between tests
// of a board programmed once. Every part is reset — the simulator, the
// design and its modules (hw.Resetter), the register map, the MACs, the
// DMA engine and driver, memories, storage and the hybrid model — and
// every tap is unplugged, to be plugged back in, reset, by the next Tap
// call. Frames in flight are dropped. Reset reports false when the
// device cannot return to its sealed state: it was never sealed, a
// module lacks Reset, or blocks, modules, streams, queues, clocks,
// agents or Every timers were added since Seal. Such a device may be
// left partially reset and must not be used again.
func (d *Device) Reset(seed uint64) bool {
	if !d.sealed.ok || len(d.agents) != d.sealed.agents || d.everyTimers != d.sealed.everyTimers {
		return false
	}
	if !d.Dsn.Reset() || !d.Regs.Reset() || !d.Sim.Reset() {
		return false
	}
	for i, m := range d.MACs {
		m.Reset(portSeed(seed, i))
	}
	for _, t := range d.taps {
		if t != nil {
			t.unplug()
		}
	}
	if d.Engine != nil {
		d.Engine.Reset()
		d.Driver.Reset()
	}
	for _, m := range d.SRAMs {
		m.Reset()
	}
	for _, m := range d.DRAMs {
		m.Reset()
	}
	for _, disk := range d.Disks {
		disk.Reset()
	}
	if d.bg != nil {
		d.bg.Reset()
	}
	return true
}

// Reseed reseeds what the device seed feeds, the ports' error
// injection, and nothing else: on a device Reset since it last ran,
// Reseed(seed) leaves it as Reset(seed) would. A sweep resets a device
// when its cell ends and only reseeds it for the next.
func (d *Device) Reseed(seed uint64) {
	for i, m := range d.MACs {
		m.Reseed(portSeed(seed, i))
	}
}

// MountRegs places a register file at the next free 4 KB-aligned base and
// returns the base address.
func (d *Device) MountRegs(rf *hw.RegisterFile) uint32 {
	base := d.regNext
	d.Regs.Mount(base, 0x1000, rf)
	d.regNext += 0x1000
	return base
}

// Now returns the device's current simulated time.
func (d *Device) Now() hw.Time { return d.Sim.Now() }

// portPrefixes are the per-port snapshot key prefixes.
var portPrefixes = hw.NewNameTable("port%d.", hw.MaxPorts)

// Snapshot aggregates every counter the device exposes — design modules,
// port MACs, the PCIe engine, the host driver and the background model —
// into one flat map, keyed by subsystem prefix. It is a view of the
// counter spine: one key concatenation and one insert per counter. The
// map is freshly allocated, so a snapshot taken when a device stops is
// immutable even if the device keeps running or is reset.
func (d *Device) Snapshot() map[string]uint64 {
	// Pre-size for the common shape: ~20 counters per port (MAC, attach,
	// output queue), a few dozen for the rest. Sized once instead of
	// rehashing as the map grows.
	out := make(map[string]uint64, 48+20*len(d.MACs))
	d.Dsn.AddStats(out, "design.")
	for i, m := range d.MACs {
		m.Counters().AddTo(out, portPrefixes.At(i))
	}
	if d.Engine != nil {
		d.Engine.Counters().AddTo(out, "pcie.")
	}
	if d.Driver != nil {
		d.Driver.Counters().AddTo(out, "host.")
	}
	if d.bg != nil {
		d.bg.Counters().AddTo(out, "bg.")
	}
	out["sim.events"] = d.Sim.Executed()
	return out
}

// Hybrid reports whether the device runs in hybrid fidelity.
func (d *Device) Hybrid() bool { return d.bg != nil }

// Background returns the hybrid-fidelity analytic model, or nil in
// full fidelity.
func (d *Device) Background() *Background { return d.bg }

// RunFor advances the simulation by dur.
func (d *Device) RunFor(dur hw.Time) { d.Sim.Run(d.Now()+dur, 0, 0) }

// RunUntilIdle runs until the device is idle: no events remain other
// than the periodic timers agents armed with Every, which re-arm forever
// and would otherwise keep a drain from ever ending (bounded by limit
// events; 0 means unbounded). It reports whether the device went idle.
func (d *Device) RunUntilIdle(limit uint64) bool {
	return d.Sim.Run(sim.Forever, limit, d.everyTimers)
}

// Agent is project "firmware": software that runs against the register
// file and exception path in simulated time, standing in for the
// soft-core embedded code of the physical platform.
type Agent interface {
	// Name identifies the agent.
	Name() string
	// Start lets the agent register its timers on the device.
	Start(d *Device)
}

// AddAgent registers and starts an agent.
func (d *Device) AddAgent(a Agent) {
	d.agents = append(d.agents, a)
	a.Start(d)
}

// Every runs fn every interval of simulated time, starting one interval
// from now — the agents' periodic-work primitive.
func (d *Device) Every(interval hw.Time, fn func()) {
	if interval <= 0 {
		panic("core: non-positive agent interval")
	}
	var tm *sim.Timer
	tm = d.Sim.NewTimer(func() {
		fn()
		tm.ScheduleAfter(interval)
	})
	tm.ScheduleAfter(interval)
	d.everyTimers++
}

// RxFrame is a frame captured at a port tap.
type RxFrame struct {
	Data []byte
	At   hw.Time
}

// PortTap is the far end of the cable plugged into a device port: tests,
// examples and workload generators send and capture traffic through it.
type PortTap struct {
	dev  *Device
	port int
	mac  *serial.MAC
	// rxBlocks is a chunked deque of captured frames: fixed-size blocks
	// are appended and never copied, so capturing N frames costs
	// amortised O(N) with no doubling churn — a long soak that captures
	// millions of frames never re-copies or re-zeroes what it already
	// holds.
	rxBlocks [][]RxFrame
	rxCount  int
	// chunk is the arena captured frame bytes are copied into, so the
	// delivered frame (and its Data buffer) can be recycled through the
	// device's frame pool. Full chunks are simply dropped on the floor;
	// they stay alive exactly as long as some RxFrame still references
	// them.
	chunk []byte
	// counting, when set, replaces frame capture with counter updates:
	// arrivals bump rxFrames/rxBytes and recycle immediately, skipping
	// the arena copy. Throughput measures that only need totals use this
	// to avoid paying a memcpy per delivered frame.
	counting          bool
	rxFrames, rxBytes uint64
	// OnRx, when set, intercepts arrivals instead of buffering them.
	OnRx func(f *hw.Frame, at hw.Time)
	// plugged is false between a device Reset and the next Tap call.
	plugged bool
}

// tapChunkBytes is the capture arena granularity.
const tapChunkBytes = 64 << 10

// rxBlockFrames is the capture deque block size.
const rxBlockFrames = 512

// Tap returns the traffic endpoint of port i, plugging it in on first use
// (and on the first use after a Reset, which unplugs every tap).
func (d *Device) Tap(i int) *PortTap {
	if i < 0 || i >= len(d.MACs) {
		panic(fmt.Sprintf("core: port %d out of range", i))
	}
	t := d.taps[i]
	if t == nil {
		t = d.newTap(i)
		d.taps[i] = t
	}
	if !t.plugged {
		if err := serial.Connect(d.MACs[i], t.mac, 5*sim.Nanosecond); err != nil {
			panic(err)
		}
		t.plugged = true
	}
	return t
}

// unplug returns the tap to the state newTap left it in: its MAC reset
// and unconnected, nothing captured or counted, buffered capture mode, no
// OnRx. Data already handed out by Received stays valid: the capture
// arena is abandoned, not reused.
func (t *PortTap) unplug() {
	t.mac.Reset(0)
	t.rxBlocks, t.rxCount, t.chunk = nil, 0, nil
	t.counting, t.rxFrames, t.rxBytes = false, 0, 0
	t.OnRx = nil
	t.plugged = false
}

// newTap builds port i's tap and its MAC, unplugged.
func (d *Device) newTap(i int) *PortTap {
	cfg := d.Board.PortConfig(i)
	cfg.Name = fmt.Sprintf("tap%d", i)
	cfg.TxBufBytes = 1 << 22 // generous: the tap is test equipment
	peer := serial.NewMAC(d.Sim, cfg)
	t := &PortTap{dev: d, port: i, mac: peer}
	pool := d.Dsn.Pool()
	peer.SetReceiver(func(f *hw.Frame, ok bool) {
		// The Frame struct delivered here is exclusively owned, but its
		// Data may be shared with multicast siblings still inside the
		// device (zero-copy replication in the output queues). The
		// buffering path copies the bytes into the tap arena and
		// recycles the frame either way. The OnRx path hands the frame
		// to the callback — which may retain and even rewrite it — so a
		// shared frame is first swapped for a private deep copy (and
		// the shared one released), preserving the callback's exclusive
		// ownership of Data. Unshared frames skip the copy.
		if !ok {
			pool.Put(f)
			return
		}
		if t.OnRx != nil {
			if f.Shared() {
				g := pool.Clone(f)
				pool.Put(f)
				f = g
			}
			t.OnRx(f, d.Sim.Now())
			return
		}
		if t.counting {
			t.rxFrames++
			t.rxBytes += uint64(len(f.Data))
			pool.Put(f)
			return
		}
		t.appendRx(RxFrame{Data: t.retain(f.Data), At: d.Sim.Now()})
		pool.Put(f)
	})
	return t
}

// appendRx stores a captured frame in the chunked deque.
func (t *PortTap) appendRx(r RxFrame) {
	nb := len(t.rxBlocks)
	if nb == 0 || len(t.rxBlocks[nb-1]) == cap(t.rxBlocks[nb-1]) {
		t.rxBlocks = append(t.rxBlocks, make([]RxFrame, 0, rxBlockFrames))
		nb++
	}
	t.rxBlocks[nb-1] = append(t.rxBlocks[nb-1], r)
	t.rxCount++
}

// retain copies b into the tap's arena and returns the stable copy.
func (t *PortTap) retain(b []byte) []byte {
	if len(t.chunk)+len(b) > cap(t.chunk) {
		size := tapChunkBytes
		if len(b) > size {
			size = len(b)
		}
		t.chunk = make([]byte, 0, size)
	}
	t.chunk = append(t.chunk, b...)
	// Full slice expression: capacity ends at the frame's last byte, so
	// a caller appending to a drained RxFrame.Data reallocates instead
	// of overwriting later frames sharing the arena.
	return t.chunk[len(t.chunk)-len(b) : len(t.chunk) : len(t.chunk)]
}

// Port returns the tap's port index.
func (t *PortTap) Port() int { return t.port }

// MAC returns the tap-side MAC, for rate math.
func (t *PortTap) MAC() *serial.MAC { return t.mac }

// Send injects a frame into the device port. The data is copied (into a
// pooled frame, so steady-state traffic allocates nothing).
func (t *PortTap) Send(data []byte) bool {
	pool := t.dev.Dsn.Pool()
	f := pool.Get(len(data))
	copy(f.Data, data)
	f.Meta.Len = uint16(len(data))
	if t.mac.Send(f) {
		return true
	}
	pool.Put(f) // tx FIFO overflow: the drop is counted, the frame is dead
	return false
}

// SendAt schedules a frame injection at an absolute simulated time.
func (t *PortTap) SendAt(at hw.Time, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	t.dev.Sim.At(at, func() { t.mac.Send(hw.NewFrame(cp, 0)) })
}

// Received drains and returns frames captured since the last call.
func (t *PortTap) Received() []RxFrame {
	if t.rxCount == 0 {
		return nil
	}
	out := make([]RxFrame, 0, t.rxCount)
	for _, b := range t.rxBlocks {
		out = append(out, b...)
	}
	t.rxBlocks, t.rxCount = nil, 0
	return out
}

// Pending returns the number of captured-but-undrained frames.
func (t *PortTap) Pending() int { return t.rxCount }

// SetCounting switches the tap between buffered capture (the default)
// and counting mode. In counting mode arrivals are tallied — frame and
// byte totals readable through Counts — and recycled without the
// per-frame arena copy buffered capture pays, which is the dominant
// cost of high-rate throughput measures that never look at payloads.
// Switching modes does not disturb frames already captured or counted;
// it only selects how future arrivals are handled. Counting mode is
// host-side bookkeeping only: the simulated traffic, timing and every
// device counter are bit-identical in either mode.
func (t *PortTap) SetCounting(on bool) { t.counting = on }

// Counts returns the totals accumulated while the tap was in counting
// mode: frames and bytes delivered to the tap (FCS excluded, matching
// RxFrame.Data elsewhere).
func (t *PortTap) Counts() (frames, bytes uint64) { return t.rxFrames, t.rxBytes }
