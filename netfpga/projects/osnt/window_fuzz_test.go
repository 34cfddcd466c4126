package osnt

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
)

// Differential test of the tester's rate declarations (generator,
// Timestamper, monitor) and of frame windows that run past the clock's
// batch, against the per-edge reference: clock batch 1 and frame windows
// off, so every edge is its own event and every cycle a Tick. A byte
// program builds OSNT on a board, loops each port pair through a "device
// under test" with a fixed delay, and then drives the tester's host API
// — Configure, Start, Stop, ResetStats — between runs of simulated time.
// Every run must agree on everything observable.

// The program's first byte picks the Timestamper mode (bit 0), the DUT
// delays of ports 0 -> 1 (bits 1-2) and 2 -> 3 (bits 3-4; the reverse
// directions are plain wires) and the board (bits 5-7). Every following
// three bytes are one operation — opcode (bits 0-2), port (bits 3-4) and
// Count/3 (bits 5-7); then a Configure's shape (mode, size) and rate,
// stamping and seed — and the run after it.
var (
	oscSizes  = [8]int{60, 64, 76, 101, 128, 512, 1000, 1514} // 76 and 101 B arrive on clock edges
	oscRates  = [8]float64{100, 1000, 2000, 5000, 9000, 9900, 10000, 40000}
	oscDelays = [4]netfpga.Time{0, 5 * netfpga.Nanosecond, netfpga.Microsecond + 2500, 20 * netfpga.Microsecond}
	oscGaps   = [4]netfpga.Time{0, 0, 37 * netfpga.Nanosecond, 700*netfpga.Nanosecond + 1}
)

// oscTrace is what one run leaves behind.
type oscTrace struct {
	probes   []string // after each operation: time, events, per-port sent and received
	stats    []MonStats
	captures [][]capturedFrame
	snap     map[string]uint64
	now      netfpga.Time
	executed uint64
	windows  uint64
	cycles   uint64
}

// oscSpec decodes one Configure from three program bytes.
func oscSpec(op, a, b byte) TrafficSpec {
	size := oscSizes[a>>2&7]
	spec := TrafficSpec{
		Template: make([]byte, size),
		Mode:     GenMode(a & 3 % 3),
		RateMbps: oscRates[b&7],
		Stamp:    b&8 == 0,
		Seed:     uint64(b >> 4),
		Count:    int(op>>5) * 3, // 0: until Stop
	}
	spec.Template[0] = a
	if spec.Mode == Replay {
		if b&16 != 0 {
			spec.Gaps = []netfpga.Time{oscGaps[b>>5&3], oscGaps[b>>6], 0}
		} else {
			for i, n := range []int{size, 76, 101} {
				spec.Trace = append(spec.Trace, TracePacket{Data: make([]byte, n), Gap: oscGaps[(int(b>>5)+i)&3]})
			}
		}
	}
	return spec
}

func runOSNTProgram(prog []byte, clockBatch, frameBurst int) oscTrace {
	for len(prog) < 2 {
		prog = append(prog, 0)
	}
	boards := netfpga.Boards()
	dev := netfpga.NewDevice(boards[int(prog[0]>>5)%len(boards)], netfpga.Options{})
	mode := lib.StampPayload
	if prog[0]&1 != 0 {
		mode = lib.StampMeta
	}
	p := New()
	if err := p.build(dev, mode); err != nil {
		panic(err)
	}
	dev.Clock.SetBatch(clockBatch)
	dev.Dsn.SetFrameBurst(frameBurst)
	o := p.Instance()
	ports := len(o.gens)
	for i := 0; i < ports; i++ {
		dst := dev.Tap(min(i^1, ports-1)) // a lone port loops to itself
		delay := netfpga.Time(0)
		if i%2 == 0 {
			delay = oscDelays[prog[0]>>(1+i)&3]
		}
		dev.Tap(i).OnRx = func(f *hw.Frame, _ netfpga.Time) {
			if delay == 0 {
				dst.Send(f.Data)
				return
			}
			dev.Sim.After(delay, func() { dst.Send(f.Data) })
		}
	}

	var tr oscTrace
	probe := func() {
		p := fmt.Sprintf("t=%d ev=%d", dev.Now(), dev.Sim.Executed())
		for i := 0; i < ports; i++ {
			p += fmt.Sprintf(" %d/%d", o.Generated(i), o.Stats(i).Pkts)
		}
		tr.probes = append(tr.probes, p)
	}
	for i := 1; i+2 < len(prog); i += 3 {
		op, a, b := prog[i], prog[i+1], prog[i+2]
		port := int(op>>3&3) % ports
		switch op & 7 {
		case 0, 1:
			if err := o.Configure(port, oscSpec(op, a, b)); err != nil {
				panic(err)
			}
		case 2:
			if err := o.Configure(port, oscSpec(op, a, b)); err != nil {
				panic(err)
			}
			o.Start(port)
		case 3, 4:
			o.Start(port)
		case 5:
			o.Stop(port)
		case 6:
			o.ResetStats(port)
		}
		// Runs from a few cycles to a few frame times, mostly off edges.
		dev.RunFor(netfpga.Time(a)*netfpga.Time(b&31)*netfpga.Nanosecond + netfpga.Time(b))
		probe()
	}
	dev.RunFor(50 * netfpga.Microsecond)
	probe()

	for i := 0; i < ports; i++ {
		tr.stats = append(tr.stats, o.Stats(i))
		tr.captures = append(tr.captures, o.mons[i].capture)
	}
	tr.snap = dev.Snapshot()
	tr.now, tr.executed = dev.Now(), dev.Sim.Executed()
	tr.windows, tr.cycles = dev.Dsn.WindowStats()
	return tr
}

// diffOSNTRuns reports the first disagreement between the per-edge
// reference and a batched run, or "".
func diffOSNTRuns(ref, got oscTrace) string {
	switch {
	case !reflect.DeepEqual(ref.probes, got.probes):
		for i := range ref.probes {
			if got.probes[i] != ref.probes[i] {
				return fmt.Sprintf("after operation %d: %q, want %q", i, got.probes[i], ref.probes[i])
			}
		}
	case !reflect.DeepEqual(ref.stats, got.stats):
		return fmt.Sprintf("monitor stats differ:\n%+v\n%+v", got.stats, ref.stats)
	case !reflect.DeepEqual(ref.captures, got.captures):
		return "captures differ"
	case !reflect.DeepEqual(ref.snap, got.snap):
		for k, v := range ref.snap {
			if got.snap[k] != v {
				return fmt.Sprintf("counter %s = %d, want %d", k, got.snap[k], v)
			}
		}
		return fmt.Sprintf("snapshot has %d counters, want %d", len(got.snap), len(ref.snap))
	case ref.now != got.now || ref.executed != got.executed:
		return fmt.Sprintf("now %d after %d events, want %d after %d", got.now, got.executed, ref.now, ref.executed)
	}
	return ""
}

// checkOSNTProgram runs prog on the per-edge reference, on the engine's
// batch and on a batch of 3 (which nearly every window outruns), and
// returns the reference and the windows the two batched runs opened and
// the cycles they absorbed.
func checkOSNTProgram(t *testing.T, prog []byte) (ref oscTrace, windows, cycles uint64) {
	t.Helper()
	ref = runOSNTProgram(prog, 1, 1)
	if ref.windows != 0 {
		t.Fatalf("the per-edge reference opened %d windows", ref.windows)
	}
	for _, batch := range []int{sim.DefaultBatch, 3} {
		got := runOSNTProgram(prog, batch, 0)
		if msg := diffOSNTRuns(ref, got); msg != "" {
			t.Fatalf("batch %d: %s", batch, msg)
		}
		windows += got.windows
		cycles += got.cycles
	}
	return ref, windows, cycles
}

// osntSeeds are the programs the fuzzer starts from. The first is
// pinned: 76- and 101-byte frames arrive on clock edges, and their
// latencies below are the per-edge reference's.
func osntSeeds() [][]byte {
	return [][]byte{
		// SUME, payload stamps, plain wires: port 0 sends 76 B, port 2
		// 101 B, 21 frames each at 1 Gb/s.
		{0, 2 | 7<<5, 2 << 2, 1, 2 | 2<<3 | 7<<5, 3 << 2, 1, 7, 255, 31, 7, 255, 31},
		// Payload stamps through 5 ns and 20 us DUTs: CBR, Stop/Start
		// and a Poisson Configure on a running port.
		{1<<1 | 3<<3,
			2, 2 << 2, 1, 7, 200, 31,
			2 | 2<<3 | 2<<5, 3 << 2, 3, 7, 255, 31,
			5, 100, 20, 3, 200, 31,
			0, 1 | 5<<2, 4 | 3<<4, 7, 255, 31, 7, 255, 31, 7, 255, 31},
		// Metadata stamps on the 10G board: Replay with zero gaps, from
		// gaps and from a trace of mixed sizes; ResetStats; Stop.
		{1 | 3<<5,
			2 | 1<<3, 2 | 2<<2, 16 | 2<<5, 7, 200, 31,
			2 | 3<<3, 2 | 3<<2, 1 << 5, 7, 255, 31, 7, 255, 31,
			6, 9, 9, 5 | 1<<3, 100, 31, 7, 255, 31},
		// The 1G board, 20 us and 1 us DUTs: 1514 B over the line rate
		// with a Count, unstamped Poisson, a re-Configure to CBR.
		{3<<1 | 2<<3 | 4<<5,
			2 | 3<<5, 7 << 2, 7, 7, 255, 31,
			2 | 2<<3, 1, 2 | 8, 7, 255, 31,
			2 << 3, 4 << 2, 1, 7, 255, 31, 4 | 2<<3, 60, 31, 7, 255, 31},
		// SUME, 1000 B at four times the line rate until the MAC FIFO
		// is full and every stage behind it stalls — the Timestamper
		// holds a collected frame with beats of the next one queued at
		// its input — then Stop.
		{0, 2, 6 << 2, 7, 7, 255, 31, 7, 255, 31, 7, 255, 31, 5, 255, 31, 7, 255, 31, 7, 255, 31},
		// The one-port 100G board, T6-shaped: 512 B at 100 Mb/s, long
		// departure gaps.
		{2 << 5, 2, 5 << 2, 0, 7, 255, 31, 7, 255, 31, 7, 255, 31, 7, 255, 31},
	}
}

// TestOSNTWindowSeedsEquivalent runs the fixed seeds. Between them they
// must open windows, and one must average windows longer than the
// clock's batch: only a window that runs until something decides does.
func TestOSNTWindowSeedsEquivalent(t *testing.T) {
	var windows uint64
	long := false
	for i, prog := range osntSeeds() {
		ref, w, c := checkOSNTProgram(t, prog)
		windows += w
		long = long || c > sim.DefaultBatch*w
		if i > 0 {
			continue
		}
		for _, pin := range []struct {
			port     int
			min, max netfpga.Time
		}{{1, 195 * netfpga.Nanosecond, 195 * netfpga.Nanosecond}, {3, 245 * netfpga.Nanosecond, 250 * netfpga.Nanosecond}} {
			if st := ref.stats[pin.port]; st.LatSamples != 21 || st.LatMin != pin.min || st.LatMax != pin.max {
				t.Errorf("port %d: %d samples, latency %v..%v, want 21 samples, %v..%v",
					pin.port, st.LatSamples, st.LatMin, st.LatMax, pin.min, pin.max)
			}
		}
	}
	if windows < 1000 || !long {
		t.Errorf("seeds opened %d windows, long ones: %v; the net is not exercising the window layer", windows, long)
	}
}

func FuzzOSNTWindowEquivalence(f *testing.F) {
	for _, prog := range osntSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 241 {
			prog = prog[:241] // 80 operations
		}
		checkOSNTProgram(t, prog)
	})
}
