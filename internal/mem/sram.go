package mem

import (
	"repro/internal/sim"
	"repro/netfpga/hw"
)

// SRAMConfig parameterises a QDRII+ SRAM device.
type SRAMConfig struct {
	Name string
	// Size in bytes. SUME carries three 72Mbit parts (9 MB each).
	Size uint64
	// ClockMHz is the memory clock; QDRII+ on SUME runs at 500 MHz.
	ClockMHz float64
	// WordBytes is the data-bus width per transfer; QDRII+ moves a word
	// on both clock edges of both ports (hence "quad data rate").
	// SUME's parts are 36-bit; modelled as 4 payload bytes.
	WordBytes int
	// ReadLatency is the pipeline latency of a read in memory-clock
	// cycles (QDRII+ is 2.5; rounded up to whole cycles here).
	ReadLatency int
}

// DefaultSUMESRAM returns the configuration of one SUME QDRII+ part.
func DefaultSUMESRAM(name string) SRAMConfig {
	return SRAMConfig{Name: name, Size: 9 << 20, ClockMHz: 500, WordBytes: 4, ReadLatency: 3}
}

// SRAM models a QDRII+ synchronous SRAM: separate read and write ports,
// each sustaining one word per clock edge (two per cycle), with a fixed
// pipelined read latency and no row/bank structure — random access is as
// fast as sequential, the property that makes QDR the flow-table memory.
type SRAM struct {
	cfg   SRAMConfig
	ports          // completion lanes and backing store; carries the simulator
	perWd sim.Time // time per word on one port (half a clock: DDR edges)
	lat   sim.Time

	readFree  sim.Time // read port next-available time
	writeFree sim.Time // write port next-available time

	reads, writes   uint64
	readBy, writeBy uint64 // bytes
	stallPs         uint64 // accumulated port contention time
	ctrs            hw.Counters
}

// NewSRAM builds an SRAM on the simulator.
func NewSRAM(s *sim.Sim, cfg SRAMConfig) *SRAM {
	if cfg.WordBytes <= 0 || cfg.ClockMHz <= 0 || cfg.Size == 0 {
		panic("mem: invalid SRAM config")
	}
	period := sim.PeriodOfMHz(cfg.ClockMHz)
	return &SRAM{
		cfg:   cfg,
		ports: ports{sim: s},
		perWd: period / 2, // DDR: one word per edge per port
		lat:   sim.Time(cfg.ReadLatency) * period,
	}
}

// Name implements Memory.
func (m *SRAM) Name() string { return m.cfg.Name }

// Size implements Memory.
func (m *SRAM) Size() uint64 { return m.cfg.Size }

// words returns the port occupancy time of an n-byte access.
func (m *SRAM) words(n int) sim.Time {
	w := (n + m.cfg.WordBytes - 1) / m.cfg.WordBytes
	if w == 0 {
		w = 1
	}
	return sim.Time(w) * m.perWd
}

// Read implements Memory. The read port serialises requests; each takes
// ceil(n/word) word-slots plus the fixed pipeline latency.
func (m *SRAM) Read(addr uint64, n int, cb func([]byte)) {
	checkRange(m.cfg.Name, addr, n, m.cfg.Size)
	now := m.sim.Now()
	start := now
	if m.readFree > start {
		m.stallPs += uint64(m.readFree - start)
		start = m.readFree
	}
	done := start + m.words(n)
	m.readFree = done
	m.reads++
	m.readBy += uint64(n)
	m.postRead(done+m.lat, addr, n, cb)
}

// Write implements Memory. The independent write port serialises writes;
// data is captured immediately (the caller may reuse its buffer).
func (m *SRAM) Write(addr uint64, data []byte, cb func()) {
	checkRange(m.cfg.Name, addr, len(data), m.cfg.Size)
	now := m.sim.Now()
	start := now
	if m.writeFree > start {
		m.stallPs += uint64(m.writeFree - start)
		start = m.writeFree
	}
	done := start + m.words(len(data))
	m.writeFree = done
	m.writes++
	m.writeBy += uint64(len(data))
	m.postWrite(done, addr, data, cb)
}

// Reset returns the part to the state NewSRAM left it in: zeroed
// contents, idle ports, counters zero.
func (m *SRAM) Reset() {
	m.ports.reset()
	m.readFree, m.writeFree = 0, 0
	m.reads, m.writes, m.readBy, m.writeBy, m.stallPs = 0, 0, 0, 0, 0
}

// PeakBandwidthGbps returns the theoretical per-direction bandwidth:
// 2 words per clock (both edges) on each independent port. The
// conversion rounds the clock product, which arm64 would otherwise fuse
// into the doubling.
func (m *SRAM) PeakBandwidthGbps() float64 {
	return float64(m.cfg.ClockMHz*1e6) * 2 * float64(m.cfg.WordBytes) * 8 / 1e9
}

// Counters implements hw.CounterSource. Memories sit outside the device
// snapshot, so the list is built on first use rather than per device.
func (m *SRAM) Counters() *hw.Counters {
	if m.ctrs.Len() == 0 {
		m.ctrs.Add("reads", &m.reads)
		m.ctrs.Add("writes", &m.writes)
		m.ctrs.Add("read_bytes", &m.readBy)
		m.ctrs.Add("write_bytes", &m.writeBy)
		m.ctrs.Add("stall_ps", &m.stallPs)
	}
	return &m.ctrs
}
