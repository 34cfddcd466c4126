// Package osnt reproduces OSNT, the Open Source Network Tester built on
// NetFPGA (Antichi et al., IEEE Network 2014; paper reference [1]): a
// combined traffic generator and monitor. Each port carries a
// rate-controlled generator with hardware payload timestamping on the
// transmit side and a monitor with per-port statistics, latency
// extraction and capture on the receive side.
//
// Timestamps have the datapath clock's resolution (5 ns at 200 MHz), so
// measured latency error is bounded by one clock quantum — the property
// the OSNT latency experiments quantify.
package osnt

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pcap"
)

// TsOffset is where generated frames carry their transmit timestamp (8
// bytes, big-endian picoseconds), past the Ethernet and IPv4/UDP headers
// of typical test traffic.
const TsOffset = 48

// GenMode selects the generator's inter-departure process.
type GenMode int

// Generator modes.
const (
	// CBR emits at a constant bit rate.
	CBR GenMode = iota
	// Poisson emits with exponential gaps at the configured mean rate.
	Poisson
	// Replay honours explicit per-frame gaps (e.g. from a pcap trace).
	Replay
)

// TracePacket is one replayed frame with its departure gap from the
// previous frame.
type TracePacket struct {
	Data []byte
	Gap  netfpga.Time
}

// TrafficSpec arms one port's generator.
type TrafficSpec struct {
	// Template is the frame to send (timestamping overwrites 8 bytes at
	// TsOffset when Stamp is set). Min 60 bytes after padding.
	Template []byte
	// Count is the number of frames (0 means unlimited until Stop).
	Count int
	Mode  GenMode
	// RateMbps is the target rate for CBR/Poisson.
	RateMbps float64
	// Gaps are Replay-mode inter-departure times; the generator cycles
	// through them.
	Gaps []netfpga.Time
	// Trace replaces Template/Gaps in Replay mode with full per-packet
	// data, e.g. loaded from a pcap file with TraceFromPcap. The
	// generator cycles through the trace when Count exceeds its length.
	Trace []TracePacket
	// Stamp embeds the transmit timestamp into the payload.
	Stamp bool
	// Seed seeds the Poisson process.
	Seed uint64
}

// TraceFromPcap converts a capture into a replayable trace: packet data
// with departure gaps taken from the capture's timestamps (the first
// packet departs immediately). Frames shorter than the Ethernet minimum
// are padded.
func TraceFromPcap(r io.Reader) ([]TracePacket, error) {
	pkts, err := pcap.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("osnt: empty capture")
	}
	out := make([]TracePacket, len(pkts))
	for i, p := range pkts {
		data := p.Data
		if len(data) < 60 {
			padded := make([]byte, 60)
			copy(padded, data)
			data = padded
		}
		tp := TracePacket{Data: data}
		if i > 0 {
			tp.Gap = p.TS - pkts[i-1].TS
			if tp.Gap < 0 {
				tp.Gap = 0
			}
		}
		out[i] = tp
	}
	return out, nil
}

// OSNT is the tester instance bound to a device.
type OSNT struct {
	dev  *netfpga.Device
	gens []*generator
	mons []*monitor
}

// Project builds OSNT onto a device.
type Project struct {
	inst *OSNT
}

// New returns an OSNT project.
func New() *Project { return &Project{} }

// Name implements netfpga.Project.
func (p *Project) Name() string { return "osnt" }

// Description implements netfpga.Project.
func (p *Project) Description() string {
	return "OSNT open-source network tester: per-port traffic generation, timestamping, monitoring and capture"
}

// Build implements netfpga.Project.
func (p *Project) Build(dev *netfpga.Device) error { return p.build(dev, lib.StampPayload) }

// build builds the tester with its transmit timestampers in mode: OSNT
// stamps the payload, and the equivalence tests also run it stamping
// the metadata.
func (p *Project) build(dev *netfpga.Device, mode lib.TimestampMode) error {
	d := dev.Dsn
	inst := &OSNT{dev: dev}
	for i, mac := range dev.MACs {
		genOut := d.NewStream(fmt.Sprintf("gen%d", i), 16)
		stamped := d.NewStream(fmt.Sprintf("stamped%d", i), 16)
		rx := d.NewStream(fmt.Sprintf("rx%d", i), 16)

		g := &generator{name: fmt.Sprintf("osnt_generator%d", i), d: d, out: genOut, seed: uint64(i) + 1}
		g.rng = sim.NewRand(g.seed)
		g.ctrs.Add("sent", &g.sent)
		d.AddModule(g)
		// The generator is a pure source: nothing pushes into it, so the
		// only wake it needs is its own (Start re-arms it after idle).
		g.wake = d.Waker(g)
		lib.NewTimestamper(d, fmt.Sprintf("tx_stamp%d", i), genOut, stamped, mode, TsOffset)
		att := lib.NewMACAttach(d, mac, i, rx, stamped, 0)
		dev.MountRegs(att.Registers())

		m := &monitor{name: fmt.Sprintf("osnt_monitor%d", i), d: d, in: rx, tsOffset: TsOffset}
		m.ctrs.Grow(3)
		m.ctrs.Add("pkts", &m.pkts)
		m.ctrs.Add("bytes", &m.bytes)
		m.ctrs.Add("lat_samples", &m.latSamples)
		d.AddModule(m)
		// Sparse-wire the monitor to its rx stream: a frame arriving
		// from the MAC wakes exactly this monitor instead of every
		// module in the design.
		d.Consume(m, rx)
		dev.MountRegs(m.registers(fmt.Sprintf("osnt_mon%d", i)))

		inst.gens = append(inst.gens, g)
		inst.mons = append(inst.mons, m)
	}
	p.inst = inst
	return nil
}

// Instance returns the tester API (after Build).
func (p *Project) Instance() *OSNT { return p.inst }

// Reset implements hw.Resetter. Generators and monitors are design
// modules, reset with the design; the tester keeps no other state.
func (p *Project) Reset() {}

// Configure arms a port's generator; it does not start transmission,
// but a started one transmits under the new spec from its next cycle.
func (o *OSNT) Configure(port int, spec TrafficSpec) error {
	if port < 0 || port >= len(o.gens) {
		return fmt.Errorf("osnt: port %d out of range", port)
	}
	if len(spec.Trace) == 0 && len(spec.Template) < 60 {
		t := make([]byte, 60)
		copy(t, spec.Template)
		spec.Template = t
	}
	if spec.Mode != Replay && spec.RateMbps <= 0 {
		return fmt.Errorf("osnt: CBR/Poisson need a positive rate")
	}
	if spec.Mode == Replay && len(spec.Gaps) == 0 && len(spec.Trace) == 0 {
		return fmt.Errorf("osnt: replay needs gaps or a trace")
	}
	g := o.gens[port]
	g.arm(spec, o.dev.Now())
	if g.running {
		// Armed while started, the generator departs on its next edge:
		// that is news to it, as Start is, whether or not it parked
		// since.
		g.wake.Wake()
	}
	return nil
}

// Start begins transmission on a port, waking just that port's
// generator (its output chain is sparse-wired downstream).
func (o *OSNT) Start(port int) { o.gens[port].running = true; o.gens[port].wake.Wake() }

// Stop halts transmission on a port.
func (o *OSNT) Stop(port int) { o.gens[port].running = false }

// Generated returns the number of frames a port's generator has sent.
func (o *OSNT) Generated(port int) uint64 { return o.gens[port].sent }

// MonStats summarises a monitor port.
type MonStats struct {
	Pkts, Bytes uint64
	// Latency stats are valid when LatSamples > 0 (frames carried
	// timestamps).
	LatSamples      uint64
	LatMin, LatMax  netfpga.Time
	LatMean         netfpga.Time
	Histogram       []uint64 // HistBuckets counts
	HistBucketWidth netfpga.Time
}

// Stats returns a port's monitor statistics.
func (o *OSNT) Stats(port int) MonStats { return o.mons[port].snapshot() }

// ResetStats clears a port's monitor state (capture included).
func (o *OSNT) ResetStats(port int) { o.mons[port].reset() }

// WriteCapture dumps a port's capture ring as a nanosecond pcap stream.
func (o *OSNT) WriteCapture(port int, w io.Writer) (int, error) {
	m := o.mons[port]
	pw, err := pcap.NewWriter(w, 0, true)
	if err != nil {
		return 0, err
	}
	for _, c := range m.capture {
		if err := pw.WritePacket(c.at, c.data); err != nil {
			return pw.Count, err
		}
	}
	return pw.Count, nil
}

// CaptureSpan returns the timestamps of the first and last frames in a
// port's capture ring and the number of frames it holds — what a reader
// of WriteCapture's stream would recover, nanosecond truncation included,
// without serialising the ring.
func (o *OSNT) CaptureSpan(port int) (first, last netfpga.Time, n int) {
	c := o.mons[port].capture
	if len(c) == 0 {
		return 0, 0, 0
	}
	ns := func(t hw.Time) netfpga.Time { return t - t%netfpga.Nanosecond }
	return ns(c[0].at), ns(c[len(c)-1].at), len(c)
}

// generator is the per-port rate-controlled source.
type generator struct {
	name    string
	d       *hw.Design
	out     *hw.Stream
	wake    hw.Waker // marks this generator runnable and re-arms the clock
	spec    TrafficSpec
	rng     *sim.Rand
	seed    uint64 // the port's default Poisson seed
	running bool
	armed   bool
	nextAt  hw.Time
	gapIdx  int
	sent    uint64
	emit    hw.Emitter
	ctrs    hw.Counters
}

func (g *generator) arm(spec TrafficSpec, now hw.Time) {
	g.spec = spec
	g.armed = true
	g.gapIdx = 0
	g.sent = 0
	g.nextAt = now
	if spec.Seed != 0 {
		g.rng = sim.NewRand(spec.Seed)
	}
}

// Name implements hw.Module.
func (g *generator) Name() string { return g.name }

// Resources implements hw.Module: the generator's DRAM replay engine is
// one of OSNT's larger blocks.
func (g *generator) Resources() hw.Resources {
	return hw.Resources{LUTs: 5200, FFs: 6100, BRAM36: 18}
}

// gap returns the inter-departure time after one frame.
func (g *generator) gap() hw.Time {
	wireBits := int64(len(g.spec.Template)+24) * 8
	switch g.spec.Mode {
	case CBR:
		return sim.BitTime(wireBits, g.spec.RateMbps/1000)
	case Poisson:
		mean := sim.BitTime(wireBits, g.spec.RateMbps/1000)
		return g.rng.ExpDuration(mean)
	case Replay:
		if len(g.spec.Trace) > 0 {
			g.gapIdx++
			return g.spec.Trace[g.gapIdx%len(g.spec.Trace)].Gap
		}
		gp := g.spec.Gaps[g.gapIdx%len(g.spec.Gaps)]
		g.gapIdx++
		return gp
	}
	return 0
}

// Tick implements hw.Module.
func (g *generator) Tick() bool {
	// Stream the in-progress frame first.
	if g.emit.Active() {
		g.emit.Emit(g.out, g.d.BusBytes())
		return true
	}
	if !g.armed || !g.running {
		return false
	}
	if g.spec.Count > 0 && g.sent >= uint64(g.spec.Count) {
		g.running = false
		return false
	}
	if g.d.Now() < g.nextAt {
		return true // waiting for the departure slot
	}
	src := g.spec.Template
	if len(g.spec.Trace) > 0 {
		src = g.spec.Trace[int(g.sent)%len(g.spec.Trace)].Data
	}
	f := g.d.Pool().Get(len(src))
	copy(f.Data, src)
	f.Meta.Len = uint16(len(src))
	if !g.spec.Stamp {
		f.Meta.Flags &^= hw.FlagTimestamped
	}
	g.emit.Start(f)
	g.sent++
	g.nextAt += g.gap()
	return true
}

// Rates implements hw.Rater. Emitting, the generator streams its frame;
// running and waiting for its departure slot, it is busy for exactly
// the cycles before the first edge at or past nextAt, which — like the
// edge that reaches Count — decides and runs as a Tick.
func (g *generator) Rates(w *hw.Window) {
	switch {
	case g.emit.Active():
		w.Push(g.out, &g.emit)
	case !g.armed || !g.running:
	case g.spec.Count > 0 && g.sent >= uint64(g.spec.Count):
		w.Horizon(1) // next cycle stops the generator
	case g.d.Now() < g.nextAt:
		w.Busy()
		p := g.d.Clock().Period()
		w.Horizon(int(min((g.nextAt-g.d.Now()+p-1)/p, 1<<30))) // int-safe; windows are capped lower
	default:
		w.Horizon(1) // next cycle departs
	}
}

// Reset implements hw.Resetter: unarmed and stopped, with the port's
// default seed.
func (g *generator) Reset() {
	g.spec, g.running, g.armed = TrafficSpec{}, false, false
	g.rng.Seed(g.seed)
	g.nextAt, g.gapIdx, g.sent = 0, 0, 0
	g.emit.Drop(g.d.Pool())
}

// Counters implements hw.CounterSource.
func (g *generator) Counters() *hw.Counters { return &g.ctrs }

// HistBuckets is the latency histogram size; buckets are
// histBucketWidth wide, the last bucket catches overflow.
const HistBuckets = 64

const histBucketWidth = 100 * sim.Nanosecond

type capturedFrame struct {
	data []byte
	at   hw.Time
}

// monitor is the per-port statistics/capture sink.
type monitor struct {
	name     string
	d        *hw.Design
	in       *hw.Stream
	tsOffset uint32

	pkts, bytes uint64
	latSamples  uint64
	latSum      uint64
	latMin      hw.Time
	latMax      hw.Time
	hist        [HistBuckets]uint64

	capture    []capturedFrame
	captureCap int
	ctrs       hw.Counters
}

// Name implements hw.Module.
func (m *monitor) Name() string { return m.name }

// Resources implements hw.Module.
func (m *monitor) Resources() hw.Resources {
	return hw.Resources{LUTs: 4400, FFs: 5000, BRAM36: 24}
}

// Tick implements hw.Module.
func (m *monitor) Tick() bool {
	if !m.in.CanPop() {
		return false
	}
	b := m.in.Pop()
	if !b.Last {
		return true
	}
	f := b.Frame
	m.pkts++
	m.bytes += uint64(len(f.Data))
	if ts, ok := lib.ExtractPayloadTimestamp(f.Data, m.tsOffset); ok && ts > 0 && ts <= m.d.Now() {
		lat := m.d.Now() - ts
		m.latSamples++
		m.latSum += uint64(lat)
		if m.latMin == 0 || lat < m.latMin {
			m.latMin = lat
		}
		if lat > m.latMax {
			m.latMax = lat
		}
		idx := int(lat / histBucketWidth)
		if idx >= HistBuckets {
			idx = HistBuckets - 1
		}
		m.hist[idx]++
	}
	if m.captureCap == 0 {
		m.captureCap = 4096
	}
	if len(m.capture) < m.captureCap {
		m.capture = append(m.capture, capturedFrame{data: f.Data, at: m.d.Now()})
	}
	return true
}

// Rates implements hw.Rater: the monitor pops a beat per cycle, and a
// Last one — counting, latency, capture — is the decision the window
// stops before.
func (m *monitor) Rates(w *hw.Window) { w.Drain(m.in) }

func (m *monitor) snapshot() MonStats {
	st := MonStats{
		Pkts: m.pkts, Bytes: m.bytes,
		LatSamples: m.latSamples, LatMin: m.latMin, LatMax: m.latMax,
		HistBucketWidth: histBucketWidth,
	}
	if m.latSamples > 0 {
		st.LatMean = hw.Time(m.latSum / m.latSamples)
	}
	st.Histogram = append(st.Histogram, m.hist[:]...)
	return st
}

func (m *monitor) reset() {
	m.pkts, m.bytes = 0, 0
	m.latSamples, m.latSum, m.latMin, m.latMax = 0, 0, 0, 0
	m.hist = [HistBuckets]uint64{}
	m.capture = nil
}

// Reset implements hw.Resetter: ResetStats, with the capture ring back
// to its default bound.
func (m *monitor) Reset() {
	m.reset()
	m.captureCap = 0
}

// registers exposes monitor counters.
func (m *monitor) registers(name string) *hw.RegisterFile {
	rf := hw.NewRegisterFile(name)
	rf.AddCounters(0x00, m.ctrs.List()...)
	rf.AddRO(0x18, "lat_min_ns", func() uint32 { return uint32(m.latMin / sim.Nanosecond) })
	rf.AddRO(0x1C, "lat_max_ns", func() uint32 { return uint32(m.latMax / sim.Nanosecond) })
	return rf
}

// Counters implements hw.CounterSource.
func (m *monitor) Counters() *hw.Counters { return &m.ctrs }
