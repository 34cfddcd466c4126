// Package serial models the high-speed serial I/O subsystem of the
// NetFPGA boards: bonded serial lanes with line-coding overhead, Ethernet
// MACs with preamble/IFG/FCS accounting, and wires with propagation delay
// and optional bit-error injection.
//
// Timing is exact at frame granularity: a frame of L bytes occupies the
// transmitter for (L + 4 FCS + 8 preamble + 12 IFG) * 8 bit-times at the
// MAC data rate, which is the lane line rate discounted by the line
// coding (64b/66b for 10G-class serdes). This reproduces the line-rate
// ceilings the platform is evaluated against without simulating
// individual symbols.
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
// analytically and accounts for its time. Reception is push-based: the
// receiver callback runs in simulated time as each frame's last bit
// arrives.
type MAC struct {
	cfg  Config
	sim  *sim.Sim
	rate float64 // MAC data rate, Gb/s

	peer *MAC
	prop sim.Time

	txq      *hw.FrameQueue
	txTimer  *sim.Timer
	inFlight *hw.Frame // frame currently being serialized
	rx       func(f *hw.Frame, fcsOK bool)
	rng      *sim.Rand

	// inbound is the wire in flight towards this MAC: a power-of-two
	// ring of frames whose last bit has left the peer but not yet
	// arrived here, drained by the single persistent rxTimer. One ring
	// and one timer replace the per-frame timer+closure allocation the
	// old delivery path paid — the datapath's dominant allocation site.
	// Arrival times are nondecreasing (one sender, constant propagation
	// delay), so FIFO draining preserves delivery order exactly.
	inbound []wireEntry
	inHead  int
	inN     int
	rxTimer *sim.Timer

	txFrames, rxFrames uint64
	txBytes, rxBytes   uint64
	fcsErrors          uint64
	txBusyPs           uint64
	ctrs               hw.Counters
	linkUp             bool
}

// NewMAC builds a MAC on the simulator.
func NewMAC(s *sim.Sim, cfg Config) *MAC {
	if cfg.Lanes <= 0 || cfg.LineGbps <= 0 {
		panic("serial: invalid MAC config")
	}
	if cfg.Encoding == 0 {
		cfg.Encoding = Encoding64b66b
	}
	if cfg.TxBufBytes == 0 {
		cfg.TxBufBytes = 64 << 10
	}
	m := &MAC{
		cfg:  cfg,
		sim:  s,
		rate: float64(cfg.Lanes) * cfg.LineGbps * cfg.Encoding,
		rng:  sim.NewRand(cfg.Seed ^ 0x5eeded), // Reseed reseeds the same way
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
	m.txTimer = s.NewTimer(m.txDone)
	m.rxTimer = s.NewTimer(m.deliver)
	return m
}

// wireEntry is one frame propagating towards a MAC.
type wireEntry struct {
	f  *hw.Frame
	at sim.Time
	ok bool
}

// enqueueArrival queues a frame to arrive at this MAC at the given time.
func (m *MAC) enqueueArrival(f *hw.Frame, ok bool, at sim.Time) {
	if m.inN == len(m.inbound) {
		size := 2 * len(m.inbound)
		if size == 0 {
			size = 16
		}
		bigger := make([]wireEntry, size)
		for i := 0; i < m.inN; i++ {
			bigger[i] = m.inbound[(m.inHead+i)&(len(m.inbound)-1)]
		}
		m.inbound, m.inHead = bigger, 0
	}
	m.inbound[(m.inHead+m.inN)&(len(m.inbound)-1)] = wireEntry{f: f, at: at, ok: ok}
	m.inN++
	if !m.rxTimer.Pending() {
		m.rxTimer.ScheduleAt(at)
	}
}

// deliver completes the head in-flight frame's propagation. The timer is
// re-armed for the next entry before the receive callback runs, so any
// event the callback schedules at the same instant stays ordered after
// the arrival, as it was when each arrival carried its own timer.
func (m *MAC) deliver() {
	e := m.inbound[m.inHead]
	m.inbound[m.inHead] = wireEntry{}
	m.inHead = (m.inHead + 1) & (len(m.inbound) - 1)
	m.inN--
	if m.inN > 0 {
		m.rxTimer.ScheduleAt(m.inbound[m.inHead].at)
	}
	m.receive(e.f, e.ok)
}

// Connect joins two MACs with a full-duplex wire of the given propagation
// delay. Both ends must have the same aggregate rate (you cannot plug a
// 40G port into a 10G port).
func Connect(a, b *MAC, prop sim.Time) error {
	if a.rate != b.rate {
		return fmt.Errorf("serial: rate mismatch %s (%.1fG) vs %s (%.1fG)",
			a.cfg.Name, a.rate, b.cfg.Name, b.rate)
	}
	a.peer, b.peer = b, a
	a.prop, b.prop = prop, prop
	a.linkUp, b.linkUp = true, true
	a.kick()
	b.kick()
	return nil
}

// Reset returns the MAC to the state NewMAC left it in, unplugged and
// with its error injection reseeded with seed: nothing queued, on the
// wire or in flight (those frames are dropped), counters zero. The
// receiver stays installed. The simulator disarms the MAC's timers
// (sim.Sim.Reset).
func (m *MAC) Reset(seed uint64) {
	m.Reseed(seed)
	m.peer, m.prop, m.linkUp = nil, 0, false
	m.txq.Reset()
	m.inFlight = nil
	clear(m.inbound)
	m.inHead, m.inN = 0, 0
	m.txFrames, m.rxFrames, m.txBytes, m.rxBytes = 0, 0, 0, 0
	m.fcsErrors, m.txBusyPs = 0, 0
}

// Reseed restarts the MAC's error injection at seed, as NewMAC seeds
// it, and changes nothing else.
func (m *MAC) Reseed(seed uint64) {
	m.cfg.Seed = seed
	m.rng.Seed(seed ^ 0x5eeded)
}

// Name returns the MAC's name.
func (m *MAC) Name() string { return m.cfg.Name }

// DataRateGbps returns the MAC-layer data rate (10.0 for a 10G port).
func (m *MAC) DataRateGbps() float64 { return m.rate }

// LinkUp reports whether the port is connected.
func (m *MAC) LinkUp() bool { return m.linkUp }

// TxQueue returns the MAC's transmit FIFO. Producers (the datapath's MAC
// attach module, or test traffic sources) push frames into it; pushing
// wakes the transmitter.
func (m *MAC) TxQueue() *hw.FrameQueue { return m.txq }

// Send pushes a frame into the transmit FIFO, reporting false on
// overflow (counted as a drop in the queue's stats).
func (m *MAC) Send(f *hw.Frame) bool { return m.txq.Push(f) }

// SetReceiver installs the reception callback. fcsOK is false when error
// injection corrupted the frame; real MACs still deliver such frames
// marked bad, and the attach module decides to drop them.
func (m *MAC) SetReceiver(fn func(f *hw.Frame, fcsOK bool)) { m.rx = fn }

// wireTime returns the transmitter occupancy of an n-byte frame.
func (m *MAC) wireTime(n int) sim.Time {
	return sim.BitTime(int64(n+OverheadBytes)*8, m.rate)
}

// kick starts transmission if the transmitter is idle and a frame waits.
func (m *MAC) kick() {
	if m.txTimer.Pending() || !m.linkUp {
		return
	}
	f := m.txq.Pop()
	if f == nil {
		return
	}
	d := m.wireTime(len(f.Data))
	m.txBusyPs += uint64(d)
	m.inFlight = f
	m.txTimer.ScheduleAfter(d)
}

// txDone completes the in-flight frame: counts it, delivers it to the
// peer after propagation, and starts the next one.
func (m *MAC) txDone() {
	f := m.inFlight
	m.inFlight = nil
	m.txFrames++
	m.txBytes += uint64(len(f.Data))
	// Error injection: probability one of the frame's wire bits flipped.
	ok := true
	if m.cfg.BER > 0 {
		bits := float64(len(f.Data)+FCSBytes) * 8
		if m.rng.Float64() < 1-pow1m(m.cfg.BER, bits) {
			ok = false
		}
	}
	m.peer.enqueueArrival(f, ok, m.sim.Now()+m.prop)
	m.kick()
}

// receive delivers a frame at this MAC.
func (m *MAC) receive(f *hw.Frame, ok bool) {
	m.rxFrames++
	m.rxBytes += uint64(len(f.Data))
	if !ok {
		m.fcsErrors++
	}
	if m.rx != nil {
		m.rx(f, ok)
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
func (m *MAC) FCSErrors() uint64 { return m.fcsErrors }

// Counters implements hw.CounterSource.
func (m *MAC) Counters() *hw.Counters { return &m.ctrs }

// Stats returns the MAC counters as a fresh map. Kept for the
// benchmark's tracer (benchmark/trace.go), which reads it; new readers
// use Counters.
func (m *MAC) Stats() map[string]uint64 { return m.ctrs.Map() }
