package lib

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pcie"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/netfpga/hw"
)

// Differential test of frame windows against per-cycle ticking (the PR
// 15 pattern: the specification runs beside the optimisation under a
// byte-program interpreter). The program's first four bytes configure a
// three-port reference pipeline — lookup latency, lookup pipeline depth,
// output-queue bytes, stream depth, a 1G transmit MAC with a 3 KB FIFO
// on port 0 (so its attach stalls for whole frames), a DMA path, a late
// injector, a Filter stage behind the lookup that drops every third
// frame — and every following pair of bytes injects one frame (size,
// ingress, a destination mask that may be multicast or the host) and
// lets a gap of simulated time pass. Both runs must agree on everything
// observable.

// lateInject is the one shape the reference pipeline never produces: a
// producer that ticks after its consumer (it is registered last and
// feeds the last port's transmit attach) and whose frames are started by
// the host program, outside any Tick — so a window can be attempted with
// the emitter active and the feedback stream still empty.
type lateInject struct {
	d    *hw.Design
	out  *hw.Stream
	q    []*hw.Frame
	emit hw.Emitter
	wake hw.Waker
}

func (l *lateInject) Name() string            { return "late_inject" }
func (l *lateInject) Resources() hw.Resources { return hw.Resources{} }

func (l *lateInject) inject(f *hw.Frame) {
	if l.emit.Active() {
		l.q = append(l.q, f)
	} else {
		l.emit.Start(f)
	}
	l.wake.Wake()
}

func (l *lateInject) Tick() bool {
	if !l.emit.Active() && len(l.q) > 0 {
		l.emit.Start(l.q[0])
		l.q = l.q[1:]
	}
	l.emit.Emit(l.out, l.d.BusBytes())
	return l.emit.Active() || len(l.q) > 0
}

func (l *lateInject) Rates(w *hw.Window) {
	if l.emit.Active() {
		w.Push(l.out, &l.emit)
	} else if len(l.q) > 0 {
		w.Horizon(1)
	}
}

// windowTrace is what one run leaves behind.
type windowTrace struct {
	egress   []string // per delivery: where, when, which frame
	probes   []uint64 // per program step: every stream's Pushed and Len, hashed
	stats    map[string]uint64
	streams  []string // per stream: Pushed, HighWater, Len
	executed uint64
	edges    uint64
	windows  uint64
	cycles   uint64
}

func runWindowProgram(prog []byte, frameBurst int) windowTrace {
	for len(prog) < 4 {
		prog = append(prog, 0)
	}
	latency := int(prog[0] % 12)
	depth := 1 + int(prog[1]%8)
	queueBytes := 2048 + 1024*int(prog[2]%22)
	streamCap := []int{2, 4, 8, 16}[prog[3]&3]
	slowMAC := prog[3]&4 != 0
	withDMA := prog[3]&8 != 0
	withLate := prog[3]&16 != 0
	withFilter := prog[3]&32 != 0

	var tr windowTrace
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("fuzz", clk, 32)
	d.SetFrameBurst(frameBurst)

	const ports = 3
	var taps [ports]*serial.MAC
	var ins []*hw.Stream
	outs := map[int]*hw.Stream{}
	for i := 0; i < ports; i++ {
		devCfg := serial.Eth10G(fmt.Sprintf("nf%d", i))
		if slowMAC && i == 0 {
			devCfg = serial.Eth1G("nf0")
			devCfg.TxBufBytes = 3 << 10
		}
		dev := serial.NewMAC(s, devCfg)
		tapCfg := devCfg
		tapCfg.Name, tapCfg.TxBufBytes = fmt.Sprintf("tap%d", i), 1<<22
		tap := serial.NewMAC(s, tapCfg)
		if err := serial.Connect(dev, tap, 0); err != nil {
			panic(err)
		}
		i := i
		tap.SetReceiver(func(f *hw.Frame, ok bool) {
			tr.egress = append(tr.egress, fmt.Sprintf("port%d t=%d len=%d id=%d ok=%v", i, s.Now(), len(f.Data), f.Data[1], ok))
		})
		taps[i] = tap
		rx := d.NewStream(fmt.Sprintf("rx%d", i), streamCap)
		tx := d.NewStream(fmt.Sprintf("tx%d", i), streamCap)
		NewMACAttach(d, dev, i, rx, tx, 0)
		ins = append(ins, rx)
		outs[i] = tx
	}
	var late *lateInject
	if withLate {
		late = &lateInject{d: d, out: outs[ports-1]}
		delete(outs, ports-1) // the injector, not the output queues, feeds the last port's wire
	}
	var eng *pcie.Engine
	if withDMA {
		eng = pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink(), RxRing: 4})
		h2d := d.NewStream("dma-rx", streamCap)
		d2h := d.NewStream("dma-tx", streamCap)
		NewDMAAttach(d, eng, h2d, d2h)
		ins = append(ins, h2d)
		outs[hw.HostPortBase], outs[hw.HostPortBase+1] = d2h, d2h // two host queues share the return stream
		eng.SetDeliver(func(f *hw.Frame) {
			tr.egress = append(tr.egress, fmt.Sprintf("host t=%d len=%d id=%d", s.Now(), len(f.Data), f.Data[1]))
			eng.PostRx(1)
		})
		eng.PostRx(2)
	}
	merged := d.NewStream("arb-opl", streamCap)
	decided := d.NewStream("opl-oq", streamCap)
	NewInputArbiter(d, ins, merged)
	opl := NewOutputPortLookup(d, "opl", merged, decided, func(f *hw.Frame) Verdict {
		m := f.Data[0]
		f.Meta.DstPorts = hw.PortMask(0)*uint32(m&1) | hw.PortMask(1)*uint32(m>>1&1) | hw.PortMask(2)*uint32(m>>2&1)
		if withDMA {
			f.Meta.DstPorts |= hw.HostPortMask(0)*uint32(m>>3&1) | hw.HostPortMask(1)*uint32(m>>4&1)
		}
		return Forward // an empty mask is a drop
	}, latency, hw.Resources{}, nil)
	opl.SetPipelineDepth(depth)
	if withFilter {
		filtered := d.NewStream("filter-oq", streamCap)
		newFilter(d, "filter", decided, filtered, func(f *hw.Frame) bool { return f.Data[1]%3 != 0 }, hw.Resources{})
		decided = filtered
	}
	NewOutputQueues(d, decided, outs, queueBytes)
	if withLate {
		d.AddModule(late)
		late.wake = d.Waker(late)
	}

	for i := 4; i+1 < len(prog); i += 2 {
		a, b := prog[i], prog[i+1]
		size := 60 + int(a&63)*1454/63 // 60..1514, mostly off the bus width
		f := hw.NewFrame(make([]byte, size), 0)
		f.Data[0] = b >> 3      // destination mask
		f.Data[1] = byte(i / 2) // identity
		if src := int(a>>6) % (ports + 1); withLate && b&0x80 != 0 {
			late.inject(f)
		} else if src < ports {
			taps[src].Send(f)
		} else if withDMA {
			eng.HostSend(f)
		}
		// Gaps from back-to-back to longer than a full frame time.
		s.RunFor(sim.Time(b&7) * sim.Time(b&7) * 40 * sim.Nanosecond)
		// The host can look between any two events, so the streams must
		// agree at every step, not only once everything has drained.
		h := uint64(14695981039346656037)
		for _, st := range d.Streams() {
			h = (h ^ st.Pushed()) * 1099511628211
			h = (h ^ uint64(st.Len())) * 1099511628211
		}
		tr.probes = append(tr.probes, h)
	}
	s.RunFor(3 * sim.Millisecond)

	tr.stats = d.Stats()
	for _, st := range d.Streams() {
		tr.streams = append(tr.streams, fmt.Sprintf("%s pushed=%d len=%d", st.Name(), st.Pushed(), st.Len()))
	}
	tr.executed, tr.edges = s.Executed(), clk.Ticks()
	tr.windows, tr.cycles = d.WindowStats()
	return tr
}

// diffWindowRuns reports the first disagreement between the per-cycle
// reference and a windowed run, or "".
func diffWindowRuns(ref, got windowTrace) string {
	switch {
	case !reflect.DeepEqual(ref.egress, got.egress):
		for i := range ref.egress {
			if i >= len(got.egress) || got.egress[i] != ref.egress[i] {
				return fmt.Sprintf("egress %d: want %q (%d deliveries), got %d deliveries", i, ref.egress[i], len(ref.egress), len(got.egress))
			}
		}
		return fmt.Sprintf("%d extra deliveries", len(got.egress)-len(ref.egress))
	case !reflect.DeepEqual(ref.probes, got.probes):
		for i := range ref.probes {
			if got.probes[i] != ref.probes[i] {
				return fmt.Sprintf("streams differ after step %d", i)
			}
		}
	case !reflect.DeepEqual(ref.stats, got.stats):
		return fmt.Sprintf("stats differ:\n%v\n%v", ref.stats, got.stats)
	case !reflect.DeepEqual(ref.streams, got.streams):
		return fmt.Sprintf("streams differ:\n%v\n%v", ref.streams, got.streams)
	case ref.executed != got.executed || ref.edges != got.edges:
		return fmt.Sprintf("events %d edges %d, want %d and %d", got.executed, got.edges, ref.executed, ref.edges)
	}
	return ""
}

// windowSeeds are the programs the fuzzer starts from; as a plain test
// they must between them open windows, stall the slow MAC, drop at the
// output queues, reach the host, start a feedback edge empty and filter.
func windowSeeds() [][]byte {
	mtuMesh := []byte{2, 7, 21, 3}
	for i := 0; i < 60; i++ {
		mtuMesh = append(mtuMesh, byte(i%3)<<6|63, byte(1<<uint((i+1+i/3)%3))<<3) // 1514 bytes, back to back
	}
	slowFanIn := []byte{0, 0, 2, 3 | 4}
	for i := 0; i < 80; i++ {
		slowFanIn = append(slowFanIn, byte(1+i%2)<<6|byte(i*37)&63, 1<<3|byte(i%3))
	}
	dmaMix := []byte{9, 2, 6, 2 | 8}
	for i := 0; i < 80; i++ {
		dmaMix = append(dmaMix, byte(i%4)<<6|byte(i*11)&63, byte(i*29)|8<<3)
	}
	shallow := []byte{5, 0, 0, 0 | 4 | 8}
	for i := 0; i < 120; i++ {
		shallow = append(shallow, byte(i*73), byte(i*151))
	}
	late := []byte{2, 7, 21, 3 | 16}
	for i := 0; i < 12; i++ {
		late = append(late, 2<<6|63, 1<<3|byte(i/6*6))      // tap 2 to port 0
		late = append(late, byte(63-i*4), 0x80|byte(1+i%2)) // and a frame injected onto port 2's wire
	}
	filtered := []byte{11, 0, 2, 1 | 4 | 32}
	for i := 0; i < 40; i++ {
		filtered = append(filtered, byte(i%3)<<6|byte(40+i%24), byte(1<<uint((i+1)%3))<<3|byte(4+i%3)) // large frames, spaced
	}
	return [][]byte{mtuMesh, slowFanIn, dmaMix, shallow, late, filtered}
}

// checkWindowProgram runs prog per-cycle, with adaptive windows and with
// windows capped at 5 cycles (which end in places adaptive ones do not),
// and returns the windows opened and cycles absorbed.
func checkWindowProgram(t *testing.T, prog []byte) (windows, cycles uint64) {
	t.Helper()
	ref := runWindowProgram(prog, 1)
	if ref.windows != 0 {
		t.Fatalf("FrameBurst 1 opened %d windows", ref.windows)
	}
	for _, burst := range []int{0, 5} {
		got := runWindowProgram(prog, burst)
		if msg := diffWindowRuns(ref, got); msg != "" {
			t.Fatalf("burst %d: %s", burst, msg)
		}
		windows += got.windows
		cycles += got.cycles
	}
	return windows, cycles
}

func TestWindowSeedsEquivalent(t *testing.T) {
	var windows, cycles uint64
	for i, prog := range windowSeeds() {
		t.Run(fmt.Sprint("seed", i), func(t *testing.T) {
			w, c := checkWindowProgram(t, prog)
			windows += w
			cycles += c
		})
	}
	if windows < 1000 || cycles < 4*windows {
		t.Errorf("seeds opened %d windows over %d cycles: the net is not exercising the window layer", windows, cycles)
	}
}

func FuzzWindowEquivalence(f *testing.F) {
	for _, prog := range windowSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		checkWindowProgram(t, prog)
	})
}
