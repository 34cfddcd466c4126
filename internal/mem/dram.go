package mem

import (
	"repro/internal/sim"
	"repro/netfpga/hw"
)

// DRAMConfig parameterises a DDR3 SoDIMM channel.
type DRAMConfig struct {
	Name string
	// Size in bytes. SUME carries two 4 GB DDR3 SoDIMMs.
	Size uint64
	// MTps is the transfer rate in mega-transfers/s (1866 on SUME).
	MTps float64
	// BusBytes is the data-bus width (8 for a 64-bit DIMM).
	BusBytes int
	// BurstLen is the transfers per burst (8 for DDR3).
	BurstLen int
	// Banks is the number of banks per rank.
	Banks int
	// RowBytes is the size of one row (page) per bank.
	RowBytes int
	// Timing parameters.
	TRCD, TRP, TCL sim.Time // activate→read, precharge, CAS latency
	TRRD           sim.Time // activate→activate, different banks
	TFAW           sim.Time // four-activate window
	TRFC           sim.Time // refresh cycle time
	TREFI          sim.Time // refresh interval
}

// DefaultSUMEDRAM returns the configuration of one SUME DDR3-1866 SoDIMM.
func DefaultSUMEDRAM(name string) DRAMConfig {
	return DRAMConfig{
		Name:     name,
		Size:     4 << 30,
		MTps:     1866,
		BusBytes: 8,
		BurstLen: 8,
		Banks:    8,
		RowBytes: 8 << 10,
		// DDR3-1866 CL13: ~13.9 ns each for tRCD/tRP/tCL.
		TRCD:  13930 * sim.Picosecond,
		TRP:   13930 * sim.Picosecond,
		TCL:   13930 * sim.Picosecond,
		TRRD:  6 * sim.Nanosecond,
		TFAW:  27 * sim.Nanosecond,
		TRFC:  260 * sim.Nanosecond,
		TREFI: 7800 * sim.Nanosecond,
	}
}

// DRAM models a DDR3 channel with a simple open-page controller: per-bank
// open rows, row hit/miss timing, a shared data bus, and periodic refresh
// that stalls the whole rank. This captures the first-order behaviour
// that matters to packet buffering: sequential bursts stream at near the
// pin rate while fine-grained random access collapses to row-miss
// latency.
type DRAM struct {
	cfg   DRAMConfig
	ports // completion lanes and backing store; carries the simulator

	burstBytes int
	burstTime  sim.Time // data-bus occupancy of one burst

	openRow  []int64 // per-bank open row, -1 if closed
	bankFree []sim.Time
	busFree  sim.Time
	nextRef  sim.Time
	lastAct  sim.Time    // for tRRD
	actRing  [4]sim.Time // recent activations, for tFAW
	actIdx   int

	reads, writes    uint64
	readBy, writeBy  uint64
	rowHits, rowMiss uint64
	refreshes        uint64
	ctrs             hw.Counters
}

// NewDRAM builds a DRAM channel on the simulator.
func NewDRAM(s *sim.Sim, cfg DRAMConfig) *DRAM {
	if cfg.BusBytes <= 0 || cfg.BurstLen <= 0 || cfg.Banks <= 0 || cfg.RowBytes <= 0 {
		panic("mem: invalid DRAM config")
	}
	d := &DRAM{
		cfg:        cfg,
		ports:      ports{sim: s},
		burstBytes: cfg.BusBytes * cfg.BurstLen,
		openRow:    make([]int64, cfg.Banks),
		bankFree:   make([]sim.Time, cfg.Banks),
	}
	// One burst of BurstLen transfers at MTps transfers/s.
	d.burstTime = sim.Time(float64(cfg.BurstLen)*1e6/cfg.MTps + 0.5)
	d.Reset()
	return d
}

// Reset returns the channel to its power-on state: zeroed contents, every
// row closed, the bus and banks idle, the first refresh one interval
// away, counters zero.
func (d *DRAM) Reset() {
	d.ports.reset()
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	clear(d.bankFree)
	d.busFree, d.nextRef, d.lastAct = 0, d.cfg.TREFI, 0
	d.actRing, d.actIdx = [4]sim.Time{}, 0
	d.reads, d.writes, d.readBy, d.writeBy = 0, 0, 0, 0
	d.rowHits, d.rowMiss, d.refreshes = 0, 0, 0
}

// Name implements Memory.
func (d *DRAM) Name() string { return d.cfg.Name }

// Size implements Memory.
func (d *DRAM) Size() uint64 { return d.cfg.Size }

// bankOf maps an address to (bank, row): rows interleave across banks so
// sequential streams exploit bank parallelism.
func (d *DRAM) bankOf(addr uint64) (bank int, row int64) {
	rowGlobal := addr / uint64(d.cfg.RowBytes)
	return int(rowGlobal % uint64(d.cfg.Banks)), int64(rowGlobal / uint64(d.cfg.Banks))
}

// refreshStall advances the refresh schedule and returns the earliest
// start time for a command arriving at t.
func (d *DRAM) refreshStall(t sim.Time) sim.Time {
	for t >= d.nextRef {
		// All banks stall for tRFC; open rows are closed.
		end := d.nextRef + d.cfg.TRFC
		for i := range d.bankFree {
			if d.bankFree[i] < end {
				d.bankFree[i] = end
			}
			d.openRow[i] = -1
		}
		if d.busFree < end {
			d.busFree = end
		}
		d.nextRef += d.cfg.TREFI
		d.refreshes++
	}
	return t
}

// access performs the timing walk for an n-byte access at addr and
// returns its completion time.
func (d *DRAM) access(addr uint64, n int) sim.Time {
	now := d.refreshStall(d.sim.Now())
	var done sim.Time
	end := addr + uint64(n)
	for addr < end {
		bank, row := d.bankOf(addr)
		// Bytes remaining within this row.
		rowEnd := (addr/uint64(d.cfg.RowBytes) + 1) * uint64(d.cfg.RowBytes)
		chunk := rowEnd - addr
		if chunk > end-addr {
			chunk = end - addr
		}
		start := now
		if d.bankFree[bank] > start {
			start = d.bankFree[bank]
		}
		if d.openRow[bank] != row {
			if d.openRow[bank] != -1 {
				start += d.cfg.TRP // precharge the old row
			}
			// The ACT command is rate-limited across banks by tRRD and
			// the four-activate window tFAW — this is what caps random
			// small-access throughput on real DDR3.
			if t := d.lastAct + d.cfg.TRRD; t > start {
				start = t
			}
			if t := d.actRing[d.actIdx] + d.cfg.TFAW; t > start {
				start = t
			}
			d.lastAct = start
			d.actRing[d.actIdx] = start
			d.actIdx = (d.actIdx + 1) % len(d.actRing)
			start += d.cfg.TRCD // activate the new row
			d.openRow[bank] = row
			d.rowMiss++
		} else {
			d.rowHits++
		}
		// Bursts occupy the shared data bus; CAS latency is pipelined,
		// so it delays data validity but not the next command.
		bursts := (int(chunk) + d.burstBytes - 1) / d.burstBytes
		busStart := start
		if d.busFree > busStart {
			busStart = d.busFree
		}
		busEnd := busStart + sim.Time(bursts)*d.burstTime
		d.busFree = busEnd
		d.bankFree[bank] = busEnd
		if busEnd+d.cfg.TCL > done {
			done = busEnd + d.cfg.TCL
		}
		addr += chunk
	}
	return done
}

// Read implements Memory.
func (d *DRAM) Read(addr uint64, n int, cb func([]byte)) {
	checkRange(d.cfg.Name, addr, n, d.cfg.Size)
	done := d.access(addr, n)
	d.reads++
	d.readBy += uint64(n)
	d.postRead(done, addr, n, cb)
}

// Write implements Memory.
func (d *DRAM) Write(addr uint64, data []byte, cb func()) {
	checkRange(d.cfg.Name, addr, len(data), d.cfg.Size)
	done := d.access(addr, len(data))
	d.writes++
	d.writeBy += uint64(len(data))
	d.postWrite(done, addr, data, cb)
}

// PeakBandwidthGbps returns the pin-rate bandwidth of the channel.
func (d *DRAM) PeakBandwidthGbps() float64 {
	return d.cfg.MTps * 1e6 * float64(d.cfg.BusBytes) * 8 / 1e9
}

// Counters implements hw.CounterSource (built on first use, like the
// SRAM's).
func (d *DRAM) Counters() *hw.Counters {
	if d.ctrs.Len() == 0 {
		d.ctrs.Add("reads", &d.reads)
		d.ctrs.Add("writes", &d.writes)
		d.ctrs.Add("read_bytes", &d.readBy)
		d.ctrs.Add("write_bytes", &d.writeBy)
		d.ctrs.Add("row_hits", &d.rowHits)
		d.ctrs.Add("row_misses", &d.rowMiss)
		d.ctrs.Add("refreshes", &d.refreshes)
	}
	return &d.ctrs
}
