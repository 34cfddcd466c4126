package lib

import (
	"bytes"
	"testing"

	"repro/internal/pcie"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/netfpga/hw"
)

// rig is a 2-port reference-style pipeline:
//
//	taps -> MACs -> MACAttach -> arbiter -> OPL -> output queues -> MACAttach -> MACs -> taps
type rig struct {
	s      *sim.Sim
	d      *hw.Design
	taps   [2]*serial.MAC
	att    [2]*MACAttach
	arb    *InputArbiter
	opl    *OutputPortLookup
	oq     *OutputQueues
	rx     [2][]*hw.Frame
	rxTime [2][]sim.Time
}

// newRig builds the rig with the given lookup function.
func newRig(t *testing.T, fn LookupFunc, latency int) *rig {
	t.Helper()
	r := &rig{}
	r.s = sim.New()
	clk := r.s.NewClockMHz("dp", 200)
	r.d = hw.NewDesign("test", clk, 32)

	var rxStreams []*hw.Stream
	txStreams := map[int]*hw.Stream{}
	for i := 0; i < 2; i++ {
		devMAC := serial.NewMAC(r.s, serial.Eth10G("dev"))
		tapCfg := serial.Eth10G("tap")
		tapCfg.TxBufBytes = 1 << 22
		tap := serial.NewMAC(r.s, tapCfg)
		if err := serial.Connect(devMAC, tap, 0); err != nil {
			t.Fatal(err)
		}
		i := i
		tap.SetReceiver(func(f *hw.Frame, ok bool) {
			if ok {
				r.rx[i] = append(r.rx[i], f)
				r.rxTime[i] = append(r.rxTime[i], r.s.Now())
			}
		})
		r.taps[i] = tap

		rxs := r.d.NewStream("rx", 8)
		txs := r.d.NewStream("tx", 8)
		r.att[i] = NewMACAttach(r.d, devMAC, i, rxs, txs, 0)
		rxStreams = append(rxStreams, rxs)
		txStreams[i] = txs
	}
	mid := r.d.NewStream("arb-opl", 8)
	post := r.d.NewStream("opl-oq", 8)
	r.arb = NewInputArbiter(r.d, rxStreams, mid)
	r.opl = NewOutputPortLookup(r.d, "opl", mid, post, fn, latency,
		hw.Resources{LUTs: 1000}, nil)
	r.oq = NewOutputQueues(r.d, post, txStreams, 0)
	return r
}

// crossover forwards port 0 -> 1 and 1 -> 0.
func crossover(f *hw.Frame) Verdict {
	f.Meta.DstPorts = hw.PortMask(1 - int(f.Meta.SrcPort))
	return Forward
}

func frame(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag
	}
	return b
}

// pushFrame streams f into s as busBytes-wide beats through an
// hw.Emitter, as a module streams a stored frame. It reports false if s
// fills first.
func pushFrame(s *hw.Stream, f *hw.Frame, busBytes int) bool {
	var e hw.Emitter
	for e.Start(f); e.Active(); {
		if pushed, _ := e.Emit(s, busBytes); !pushed {
			return false
		}
	}
	return true
}

func TestPipelineForwardsFrames(t *testing.T) {
	r := newRig(t, crossover, 0)
	r.taps[0].Send(hw.NewFrame(frame(100, 1), 0))
	r.s.RunFor(sim.Millisecond)
	if len(r.rx[1]) != 1 {
		t.Fatalf("port 1 received %d frames", len(r.rx[1]))
	}
	if len(r.rx[0]) != 0 {
		t.Fatal("frame echoed to source")
	}
	if got := r.rx[1][0].Data; len(got) != 100 || got[0] != 1 {
		t.Fatal("payload corrupted in flight")
	}
}

func TestPipelineBidirectional(t *testing.T) {
	r := newRig(t, crossover, 0)
	for i := 0; i < 50; i++ {
		r.taps[0].Send(hw.NewFrame(frame(200, 1), 0))
		r.taps[1].Send(hw.NewFrame(frame(200, 2), 0))
	}
	r.s.RunFor(sim.Millisecond)
	if len(r.rx[0]) != 50 || len(r.rx[1]) != 50 {
		t.Fatalf("rx counts %d/%d, want 50/50", len(r.rx[0]), len(r.rx[1]))
	}
	for _, f := range r.rx[0] {
		if f.Data[0] != 2 {
			t.Fatal("port 0 got port-0-originated frame")
		}
	}
}

func TestPipelineLineRate10G(t *testing.T) {
	// Drive port 0 at line rate with 1514B frames for 1ms; everything
	// must arrive at port 1 (no internal bottleneck at 10G on a 51.2G
	// datapath).
	r := newRig(t, crossover, 4)
	const n = 700 // ~860us at 10G line rate, 1514B frames
	for i := 0; i < n; i++ {
		r.taps[0].Send(hw.NewFrame(frame(1514, byte(i)), 0))
	}
	r.s.RunFor(2 * sim.Millisecond)
	if len(r.rx[1]) != n {
		t.Fatalf("received %d of %d at line rate", len(r.rx[1]), n)
	}
	st := r.d.Stats()
	if st["opl.drops"] != 0 {
		t.Fatalf("unexpected drops: %v", st)
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	r := newRig(t, crossover, 2)
	const n = 100
	for i := 0; i < n; i++ {
		f := hw.NewFrame(frame(64+i, byte(i)), 0)
		f.Meta.TraceID = uint64(i)
		r.taps[0].Send(f)
	}
	r.s.RunFor(sim.Millisecond)
	if len(r.rx[1]) != n {
		t.Fatalf("got %d frames", len(r.rx[1]))
	}
	for i, f := range r.rx[1] {
		if f.Data[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestLookupDropVerdict(t *testing.T) {
	drop := func(f *hw.Frame) Verdict { return Drop }
	r := newRig(t, drop, 0)
	r.taps[0].Send(hw.NewFrame(frame(64, 1), 0))
	r.s.RunFor(sim.Millisecond)
	if len(r.rx[0])+len(r.rx[1]) != 0 {
		t.Fatal("dropped frame was forwarded")
	}
	if r.d.Stats()["opl.drops"] != 1 {
		t.Fatal("drop not counted")
	}
}

func TestLookupToCPU(t *testing.T) {
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	cpuQ := d.NewFrameQueue("cpu", 16, 0)
	punt := func(f *hw.Frame) Verdict { return ToCPU }
	NewOutputPortLookup(d, "opl", in, out, punt, 0, hw.Resources{}, cpuQ)
	pushFrame(in, hw.NewFrame(frame(64, 9), 0), 32)
	s.RunFor(sim.Microsecond)
	if cpuQ.Len() != 1 {
		t.Fatal("frame not punted to CPU queue")
	}
	if out.CanPop() {
		t.Fatal("punted frame with no DstPorts was also forwarded")
	}
}

func TestMulticastReplication(t *testing.T) {
	flood := func(f *hw.Frame) Verdict {
		f.Meta.DstPorts = hw.AllPortsMask(2) // both ports
		return Forward
	}
	r := newRig(t, flood, 0)
	r.taps[0].Send(hw.NewFrame(frame(128, 5), 0))
	r.s.RunFor(sim.Millisecond)
	if len(r.rx[0]) != 1 || len(r.rx[1]) != 1 {
		t.Fatalf("flood delivered %d/%d copies", len(r.rx[0]), len(r.rx[1]))
	}
	// Copies are independent frames with independent metadata but
	// deliberately share the frozen payload bytes (zero-copy multicast).
	a, b := r.rx[0][0], r.rx[1][0]
	if a == b {
		t.Fatal("multicast copies are the same frame")
	}
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("multicast copies differ in payload")
	}
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("multicast copies copied the payload — replication should share the frozen buffer")
	}
	if a.Meta.DstPorts == b.Meta.DstPorts {
		t.Fatal("multicast copies share metadata")
	}
}

func TestArbiterFairness(t *testing.T) {
	r := newRig(t, crossover, 0)
	// Saturate both inputs; grants must split evenly.
	for i := 0; i < 200; i++ {
		r.taps[0].Send(hw.NewFrame(frame(800, 1), 0))
		r.taps[1].Send(hw.NewFrame(frame(800, 2), 0))
	}
	r.s.RunFor(2 * sim.Millisecond)
	st := r.arb.Counters().Map()
	g0, g1 := st["grants_in0"], st["grants_in1"]
	if g0+g1 != 400 {
		t.Fatalf("total grants %d, want 400", g0+g1)
	}
	diff := int64(g0) - int64(g1)
	if diff < -10 || diff > 10 {
		t.Fatalf("unfair arbitration: %d vs %d", g0, g1)
	}
}

func TestOutputQueueOverflowDrops(t *testing.T) {
	// Both inputs target port 1 at 10G each: 20G into a 10G port must
	// overflow the output queue.
	all1 := func(f *hw.Frame) Verdict {
		f.Meta.DstPorts = hw.PortMask(1)
		return Forward
	}
	r := newRig(t, all1, 0)
	for i := 0; i < 400; i++ {
		r.taps[0].Send(hw.NewFrame(frame(1514, 1), 0))
		r.taps[1].Send(hw.NewFrame(frame(1514, 2), 0))
	}
	r.s.RunFor(2 * sim.Millisecond)
	st := r.oq.Counters().Map()
	if st["port1_drops"] == 0 {
		t.Fatal("overload did not drop")
	}
	if got := len(r.rx[1]); got == 0 || got == 800 {
		t.Fatalf("expected partial delivery, got %d of 800", got)
	}
}

func TestBadFCSFiltered(t *testing.T) {
	// A rig with BER on the tap->device direction: corrupted frames must
	// be dropped at MACAttach and counted.
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	devMAC := serial.NewMAC(s, serial.Eth10G("dev"))
	tapCfg := serial.Eth10G("tap")
	tapCfg.BER = 1e-4 // most 1514B frames corrupted
	tapCfg.Seed = 3
	tap := serial.NewMAC(s, tapCfg)
	serial.Connect(devMAC, tap, 0)
	rxs := d.NewStream("rx", 8)
	txs := d.NewStream("tx", 8)
	att := NewMACAttach(d, devMAC, 0, rxs, txs, 0)
	d.AddModule(&drainMod{out: rxs}) // absorb good frames into the "pipeline"
	for i := 0; i < 100; i++ {
		tap.Send(hw.NewFrame(frame(1514, 1), 0))
		s.RunFor(2 * sim.Microsecond)
	}
	s.RunFor(sim.Millisecond)
	st := att.Counters().Map()
	if st["bad_fcs"] == 0 {
		t.Fatal("no FCS errors seen despite BER")
	}
	if st["rx_pkts"]+st["bad_fcs"] != 100 {
		t.Fatalf("accounting broken: good %d + bad %d != 100", st["rx_pkts"], st["bad_fcs"])
	}
}

// TestMACAttachStampsArrivals: a frame whose arrival falls between two
// datapath edges is stamped with its arrival instant, not with the edge
// that takes it, and the attach's counters read from an event after the
// arrival and before that edge count it on the MAC.
func TestMACAttachStampsArrivals(t *testing.T) {
	var ingress []sim.Time
	r := newRig(t, func(f *hw.Frame) Verdict {
		ingress = append(ingress, f.Meta.Ingress)
		return crossover(f)
	}, 0)
	arrival := sim.BitTime(int64(serial.MinFrameBytes+serial.OverheadBytes)*8, 10) // the wire's delay is 0
	if arrival%r.d.Clock().Period() == 0 {
		t.Fatalf("arrival %v falls on an edge", arrival)
	}
	r.taps[0].Send(hw.NewFrame(frame(60, 1), 0))
	var read map[string]uint64
	r.s.At(arrival+1, func() { read = r.att[0].Counters().Map() })
	r.s.RunFor(sim.Microsecond)
	if read["mac_rx_frames"] != 1 {
		t.Fatalf("counters read just after the arrival: mac_rx_frames %d, want 1", read["mac_rx_frames"])
	}
	if len(ingress) != 1 || ingress[0] != arrival {
		t.Fatalf("Meta.Ingress %v, want the arrival instant %v", ingress, arrival)
	}
}

// drainMod pops one beat per cycle from a stream.
type drainMod struct {
	out   *hw.Stream
	onPop func()
}

func (m *drainMod) Name() string            { return "drain" }
func (m *drainMod) Resources() hw.Resources { return hw.Resources{} }
func (m *drainMod) Tick() bool {
	if m.out.CanPop() {
		b := m.out.Pop()
		if b.Last && m.onPop != nil {
			m.onPop()
		}
		return true
	}
	return false
}

func TestTimestamperPayloadMode(t *testing.T) {
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	NewTimestamper(d, "ts", in, out, StampPayload, 16)
	d.AddModule(&captureMod{out: out, cb: func(*hw.Frame) {}})
	f := hw.NewFrame(frame(64, 0), 0)
	pushFrame(in, f, 32)
	s.RunFor(sim.Microsecond)
	ts, ok := ExtractPayloadTimestamp(f.Data, 16)
	if !ok {
		t.Fatal("no timestamp written")
	}
	if ts == 0 {
		t.Fatal("timestamp is zero")
	}
	if ts%(5*sim.Nanosecond) != 0 {
		t.Fatalf("timestamp %v not quantized to the 5ns clock", ts)
	}
}

// captureMod pops beats and reports completed frames.
type captureMod struct {
	out *hw.Stream
	cb  func(*hw.Frame)
}

func (m *captureMod) Name() string            { return "capture" }
func (m *captureMod) Resources() hw.Resources { return hw.Resources{} }
func (m *captureMod) Tick() bool {
	if m.out.CanPop() {
		b := m.out.Pop()
		if b.Last {
			m.cb(b.Frame)
		}
		return true
	}
	return false
}

func TestDMAAttachPrivatizesSharedFrames(t *testing.T) {
	// A host-bound frame whose Data is shared with a multicast sibling
	// (zero-copy replication at the output queues) must be swapped for
	// a private copy before delivery: the host retains — and may
	// rewrite — received buffers indefinitely.
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	eng := pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink()})
	toPipe := d.NewStream("h2d", 8)
	fromPipe := d.NewStream("d2h", 8)
	NewDMAAttach(d, eng, toPipe, fromPipe)
	var got *hw.Frame
	eng.SetDeliver(func(f *hw.Frame) { got = f })
	eng.PostRx(4)

	pool := d.Pool()
	orig := pool.Get(96)
	for i := range orig.Data {
		orig.Data[i] = 9
	}
	sib := pool.ShareClone(orig) // orig stays "inside the device"
	sib.Meta.DstPorts = hw.HostPortMask(0)
	if !pushFrame(fromPipe, sib, 32) {
		t.Fatal("push failed")
	}
	s.RunFor(sim.Millisecond)
	if got == nil {
		t.Fatal("host never received the frame")
	}
	if &got.Data[0] == &orig.Data[0] {
		t.Fatal("host-retained Data aliases an in-flight multicast sibling")
	}
	if !bytes.Equal(got.Data, orig.Data) {
		t.Fatal("privatized copy differs from the original payload")
	}
	// The host copy is private: scribbling on it must not touch the
	// sibling still owned by the datapath.
	got.Data[0] = 0xEE
	if orig.Data[0] != 9 {
		t.Fatal("host write leaked into the datapath sibling")
	}
	if orig.Shared() {
		t.Fatal("sibling still marked shared after privatization released the share")
	}
}

func TestDMAAttachLoop(t *testing.T) {
	// Host frame -> DMA -> pipeline loopback -> DMA -> host.
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	eng := pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink()})
	toPipe := d.NewStream("h2d", 8)
	fromPipe := d.NewStream("d2h", 8)
	NewDMAAttach(d, eng, toPipe, fromPipe)
	// Loopback module: anything from host goes back to host queue 0.
	loop := func(f *hw.Frame) Verdict {
		f.Meta.DstPorts = hw.HostPortMask(0)
		return Forward
	}
	NewOutputPortLookup(d, "loop", toPipe, fromPipe, loop, 0, hw.Resources{}, nil)
	var rx []*hw.Frame
	eng.SetDeliver(func(f *hw.Frame) { rx = append(rx, f) })
	eng.PostRx(64)

	f := hw.NewFrame(frame(300, 7), hw.HostPortBase)
	if !eng.HostSend(f) {
		t.Fatal("HostSend failed")
	}
	s.RunFor(sim.Millisecond)
	if len(rx) != 1 {
		t.Fatalf("host received %d frames", len(rx))
	}
	if rx[0].Data[0] != 7 || len(rx[0].Data) != 300 {
		t.Fatal("payload corrupted through DMA loop")
	}
}

func TestStoreAndForwardLatencyGrowsWithFrameSize(t *testing.T) {
	measure := func(size int) sim.Time {
		r := newRig(t, crossover, 0)
		r.taps[0].Send(hw.NewFrame(frame(size, 1), 0))
		r.s.RunFor(sim.Millisecond)
		if len(r.rxTime[1]) != 1 {
			t.Fatalf("size %d: no delivery", size)
		}
		return r.rxTime[1][0]
	}
	small, large := measure(64), measure(1514)
	if large <= small {
		t.Fatalf("store-and-forward latency should grow with size: %v vs %v", small, large)
	}
}
