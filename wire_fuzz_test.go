package repro

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/sweep"
)

// wireSide is one device of FuzzWireEquivalence: a reference pipeline
// whose one stage forwards each frame to the port mask in its first
// byte, on a board's own port configuration, with a tap on every port.
// A hooked tap has an OnRx that does what the tap does — counts or
// captures — so its MAC's receiver takes each frame at its arrival
// instant, one event per frame. The reference side is the per-edge
// engine (one edge per event, no frame windows) with every tap hooked
// from the start. On the other the engine batches and opens windows,
// and the taps only observe, so frames toward them cost no event, until
// a program hooks one between runs.
type wireSide struct {
	dev  *netfpga.Device
	taps []*netfpga.PortTap
	// ingress is every frame's arrival stamp, as the forwarding stage
	// saw it, in order.
	ingress []hw.Time
	// The hooked taps' bookkeeping, as PortTap keeps it.
	hooked        []bool
	counting      []bool
	frames, bytes []uint64
	rx            [][]netfpga.RxFrame
	// reads are what the in-run reads saw, in order.
	reads []wireState
}

func newWireSide(t *testing.T, board netfpga.BoardSpec, seed uint64, ref bool) *wireSide {
	dev := netfpga.NewDevice(board, netfpga.Options{PortBER: 2e-5, Seed: seed, NoHost: true})
	ports := uint32(1)<<board.Ports - 1
	w := &wireSide{dev: dev}
	route := func(f *hw.Frame) lib.Verdict {
		w.ingress = append(w.ingress, f.Meta.Ingress)
		if f.Meta.DstPorts = uint32(f.Data[0]) & ports; f.Meta.DstPorts == 0 {
			return lib.Drop
		}
		return lib.Forward
	}
	// A 24-cycle lookup eight deep forwards a frame every three cycles,
	// slower than short frames arrive on the faster boards, so a burst
	// of them overflows the small receive FIFOs.
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages:      []lib.Stage{lib.Lookup("wire_route", route, 24, hw.Resources{})},
		RxFIFOBytes: 2 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	n := board.Ports
	w.hooked, w.counting = make([]bool, n), make([]bool, n)
	w.frames, w.bytes, w.rx = make([]uint64, n), make([]uint64, n), make([][]netfpga.RxFrame, n)
	for i := 0; i < n; i++ {
		w.taps = append(w.taps, dev.Tap(i))
		if ref {
			w.hook(i)
		}
	}
	if ref {
		dev.Clock.SetBatch(1)
		dev.Dsn.SetFrameBurst(1)
	}
	return w
}

// hook gives tap i an OnRx that goes on where the tap leaves off.
func (w *wireSide) hook(i int) {
	tap := w.taps[i]
	w.frames[i], w.bytes[i] = tap.Counts()
	w.rx[i] = tap.Received()
	w.hooked[i] = true
	tap.OnRx = func(f *hw.Frame, at hw.Time) {
		if w.counting[i] {
			w.frames[i]++
			w.bytes[i] += uint64(len(f.Data))
		} else {
			w.rx[i] = append(w.rx[i], netfpga.RxFrame{Data: bytes.Clone(f.Data), At: at})
		}
		w.dev.Dsn.Pool().Put(f)
	}
}

func (w *wireSide) setCounting(i int, on bool) {
	w.counting[i] = on
	w.taps[i].SetCounting(on)
}

func (w *wireSide) counts(i int) (uint64, uint64) {
	if w.hooked[i] {
		return w.frames[i], w.bytes[i]
	}
	return w.taps[i].Counts()
}

func (w *wireSide) received(i int) []netfpga.RxFrame {
	if w.hooked[i] {
		out := w.rx[i]
		w.rx[i] = nil
		return out
	}
	return w.taps[i].Received()
}

// wireState is every counter a reader can see: the device snapshot but
// its event count, and each tap MAC's counter values in List() order.
// Both sides build their tap MACs alike, so the lists name the same
// counters in the same order and the values alone tell them apart.
type wireState struct {
	snap map[string]uint64
	taps []uint64
}

func (w *wireSide) state() wireState {
	st := wireState{snap: w.dev.Snapshot()}
	delete(st.snap, "sim.events")
	for _, tap := range w.taps {
		for _, c := range tap.MAC().Counters().List() {
			st.taps = append(st.taps, c.Value())
		}
	}
	return st
}

func (a wireState) equal(b wireState) bool {
	return maps.Equal(a.snap, b.snap) && slices.Equal(a.taps, b.taps)
}

// drainBudgets is the most budgets of limit events one drain runs
// before it runs on to idle unbudgeted: a drain in budgets of 1 event
// until idle took most of a program's time.
const drainBudgets = 16

// drain runs until the device is idle, in up to drainBudgets budgets of
// limit events, then unbudgeted, and counts the budgets that ran out
// with frames toward the device still on their way by arithmetic.
func (w *wireSide) drain(limit uint64) (between int) {
	for range drainBudgets {
		if w.dev.RunUntilIdle(limit) {
			return between
		}
		for _, m := range w.dev.MACs {
			if at, _ := m.NextArrival(); at != sim.Forever {
				between++
				break
			}
		}
	}
	w.dev.RunUntilIdle(0)
	return between
}

// wireSizes are the frame sizes the fuzz sends: runts (38 bytes and
// less, which a 100G port would serialize within one 5 ns datapath
// period unpadded; both sides pad them to the minimum), the rest of the
// short frames, and full ones.
var wireSizes = []int{1, 14, 30, 38, 39, 45, 59, 60, 61, 128, 300, 1000, 1514}

// wireStats counts what a program reached, for the engagement check:
// besides the outbound cases, arrivals at the device on a datapath edge
// (onEdge), receive-FIFO overflows, attaches parked until an arrival
// (woken), clocks gated with an arrival pending (parked) and budgeted
// drains that stopped between arrivals.
type wireStats struct {
	fullFIFO, pops, runts, badFCS, inRun, converted int
	onEdge, rxDrops, woken, parked, between         int
}

// runWireProgram runs one program on a lazy and a reference side and
// fails t at the first difference. prog's bytes choose the operations;
// once they run out, seed's generator chooses until ops have run.
func runWireProgram(t *testing.T, board netfpga.BoardSpec, seed uint64, prog []byte, ops int) wireStats {
	var st wireStats
	lazy, ref := newWireSide(t, board, seed, false), newWireSide(t, board, seed, true)
	sides := []*wireSide{lazy, ref}
	r := sim.NewRand(seed)
	next := func() int {
		if len(prog) == 0 {
			return r.Intn(256)
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	ports := board.Ports
	frame := make([]byte, 1514)
	// check compares the sides after op (op < 0: after the program) and
	// formats its label only when they differ.
	check := func(op int, where string) {
		t.Helper()
		what := func() string {
			if op < 0 {
				return where
			}
			return fmt.Sprintf("op %d%s", op, where)
		}
		if lazy.dev.Now() != ref.dev.Now() {
			t.Fatalf("%s: Now %v, reference %v", what(), lazy.dev.Now(), ref.dev.Now())
		}
		if !slices.Equal(lazy.ingress, ref.ingress) {
			t.Fatalf("%s: arrival stamps\n%v\nreference\n%v", what(), lazy.ingress, ref.ingress)
		}
		for _, at := range lazy.ingress {
			if at%lazy.dev.Clock.Period() == 0 {
				st.onEdge++
			}
		}
		lazy.ingress, ref.ingress = nil, nil
		if got, want := lazy.state(), ref.state(); !got.equal(want) {
			t.Fatalf("%s: counters\n%v\nreference\n%v", what(), got, want)
		}
		if !slices.EqualFunc(lazy.reads, ref.reads, wireState.equal) {
			t.Fatalf("%s: reads inside runs\n%v\nreference\n%v", what(), lazy.reads, ref.reads)
		}
		st.inRun += len(lazy.reads)
		lazy.reads, ref.reads = nil, nil
		for i := 0; i < ports; i++ {
			lf, lb := lazy.counts(i)
			rf, rb := ref.counts(i)
			if lf != rf || lb != rb {
				t.Fatalf("%s: tap %d counted %d frames %d bytes, reference %d and %d", what(), i, lf, lb, rf, rb)
			}
			got, want := lazy.received(i), ref.received(i)
			if len(got) != len(want) {
				t.Fatalf("%s: tap %d captured %d frames, reference %d", what(), i, len(got), len(want))
			}
			for k := range got {
				if got[k].At != want[k].At || !bytes.Equal(got[k].Data, want[k].Data) {
					t.Fatalf("%s: tap %d frame %d at %v (%d bytes), reference at %v (%d bytes)",
						what(), i, k, got[k].At, len(got[k].Data), want[k].At, len(want[k].Data))
				}
			}
			lq, rq := lazy.dev.MACs[i].TxQueue(), ref.dev.MACs[i].TxQueue()
			if lq.Bytes() != rq.Bytes() || lq.CanAccept(1514) != rq.CanAccept(1514) {
				t.Fatalf("%s: port %d FIFO %d bytes, reference %d", what(), i, lq.Bytes(), rq.Bytes())
			}
		}
	}
	// each runs fn on both sides, the lazy one first.
	each := func(fn func(w *wireSide)) {
		for _, w := range sides {
			fn(w)
		}
	}
	for op := 0; len(prog) > 0 || op < ops; op++ {
		switch c := next() % 9; c {
		case 0, 1: // a burst to one port mask from one tap, or from every tap: fan-in
			src, mask, n := next()%ports, byte(next()), 1+next()%64
			size := wireSizes[next()%len(wireSizes)]
			srcs := []int{src}
			if c == 1 {
				mask, n = 1<<(mask%byte(ports)), 16+n%48
				srcs = srcs[:0]
				for i := 0; i < ports; i++ {
					srcs = append(srcs, i)
				}
			}
			if size < 39 {
				st.runts += n * len(srcs)
			}
			for k := 0; k < n; k++ {
				for _, src := range srcs {
					for j := range frame[:size] {
						frame[j] = byte(r.Uint64())
					}
					frame[0] = mask
					for _, w := range sides {
						w.taps[src].Send(frame[:size])
					}
				}
			}
		case 2: // a random span, in whole nanoseconds
			span := hw.Time(1+next()) * hw.Time(1+next()%8) * 20 * hw.Nanosecond
			each(func(w *wireSide) { w.dev.RunFor(span) })
			for _, m := range lazy.dev.MACs {
				if !m.TxQueue().CanAccept(1514) {
					st.fullFIFO++
				}
			}
		case 3: // to exactly the next pop of a port, the first from a random one that has one due
			at, p := sim.Forever, next()
			for i := 0; i < ports && at == sim.Forever; i++ {
				at = lazy.dev.MACs[(p+i)%ports].NextPop()
			}
			if at == sim.Forever {
				continue
			}
			st.pops++
			each(func(w *wireSide) { w.dev.RunFor(at - w.dev.Now()) })
			check(op, ", at a pop")
		case 4: // a drain in budgets
			limit := []uint64{0, 1, 7, 64, 1000}[next()%5]
			each(func(w *wireSide) { st.between += w.drain(limit) })
		case 5:
			i, on := next()%ports, next()%2 == 1
			for _, w := range sides {
				w.setCounting(i, on)
			}
		case 6: // reads from an event inside the next run, off every wire instant
			at := lazy.dev.Now() + hw.Time(1+next())*10*hw.Nanosecond + 5
			for _, w := range sides {
				w := w
				w.dev.Sim.At(at, func() {
					w.reads = append(w.reads, w.state())
				})
			}
		case 7:
			check(op, "")
		case 8: // OnRx on a tap of the lazy side, between runs, maybe mid-traffic
			if i := next() % ports; !lazy.hooked[i] {
				if lazy.dev.MACs[i].WireTail() != 0 {
					st.converted++ // frames toward the tap are pending
				}
				lazy.hook(i)
			}
		}
	}
	each(func(w *wireSide) { w.drain(0) })
	check(-1, "drained")
	for _, tap := range lazy.taps {
		st.badFCS += int(tap.MAC().FCSErrors())
	}
	for k, v := range lazy.dev.Snapshot() {
		if strings.HasSuffix(k, ".attach.rx_drops") {
			st.rxDrops += int(v)
		}
	}
	parks, wakes := lazy.dev.Dsn.ArrivalStats()
	st.parked, st.woken = int(parks), int(wakes)
	return st
}

// FuzzWireEquivalence holds the device's engine — the batched clock,
// frame windows, taps that only observe — to the per-edge engine with
// every tap hooked by OnRx, on every board's port configuration, under
// random programs (runWireProgram) of: bursts of random frames (runts
// included) to random port masks, so transmit FIFOs fill and the
// attach stalls on them, and fan-in so receive FIFOs overflow; runs of
// random spans and runs to exactly a MAC's next pop; drains in budgets
// of 1 to 1000 events; switching taps between counting and capture; OnRx
// set on a tap between runs, frames toward it pending or not; reads of
// the port MACs' FIFOs, the taps' counts and captures and every counter,
// between runs and from events inside runs; and a nonzero bit error
// rate. Arrivals at the taps (time and bytes), every frame's arrival
// stamp at the device (Meta.Ingress, in the order the forwarding stage
// saw them), counts, every counter, the FIFOs and Now must be identical.
// The wire itself is held to the event wire it replaced one MAC at a
// time, by internal/serial's FuzzMACWire. (Mutation-checked:
// MACAttach.Counters without its settle and a RunUntilIdle that stops
// before the wire's tail each fail the seeds; the FIFO stall declared
// without its Horizon fails TestWireEquivalence.)
func FuzzWireEquivalence(f *testing.F) {
	for b := range sweep.BoardNames() {
		for _, prog := range []string{
			"\x00\x07\x10\x00\x27\x31\x02\x01\x40\x04\x05\x06\x02\x07",
			"\x00\x30\x00\x31\x00\x32\x01\x90\x06\x60\x01\x20\x04\x05\x08\x02\x03",
			"\x03\x01\x00\x1f\x00\x2f\x00\x0f\x08\x06\x30\x02\x02\x03\x00\x05\x04\x02\x00",
		} {
			f.Add(uint8(b), uint64(b+1), []byte(prog))
		}
		for seed := uint64(1); seed <= 3; seed++ {
			f.Add(uint8(b), seed, []byte{}) // the seed's generator chooses
		}
	}
	boards := sweep.BoardNames()
	f.Fuzz(func(t *testing.T, boardIdx uint8, seed uint64, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		board, _ := sweep.Board(boards[int(boardIdx)%len(boards)])
		runWireProgram(t, board, seed, prog, 40)
	})
}

// TestWireEquivalence runs random programs on every board and checks
// the net reached what it is for: full transmit FIFOs, runs to exactly
// a pop, 100G runts, corrupted frames, reads inside runs, OnRx set
// between runs while frames toward the tap were pending (converted);
// and toward the device: arrivals on a datapath edge on SUME's 5 ns
// clock, which the edge at the arrival sees, and on the 10G and
// 1G-CML boards' longer periods, which it does not; receive-FIFO
// overflows; attaches parked until an arrival; clocks gated with an
// arrival pending; and budgeted drains that stopped between arrivals.
func TestWireEquivalence(t *testing.T) {
	var total wireStats
	var sumeEdge, slowEdge int
	for _, name := range sweep.BoardNames() {
		for seed := uint64(1); seed <= 6; seed++ {
			board, _ := sweep.Board(name)
			st := runWireProgram(t, board, seed, nil, 60)
			total.fullFIFO += st.fullFIFO
			total.pops += st.pops
			total.badFCS += st.badFCS
			total.inRun += st.inRun
			total.converted += st.converted
			total.rxDrops += st.rxDrops
			total.woken += st.woken
			total.parked += st.parked
			total.between += st.between
			if board.Ports == 1 {
				total.runts += st.runts
			}
			if sim.PeriodOfMHz(board.ClockMHz) == 5*sim.Nanosecond {
				sumeEdge += st.onEdge
			} else {
				slowEdge += st.onEdge
			}
		}
	}
	t.Logf("%+v, on an edge: %d on a 5 ns clock, %d on a longer one", total, sumeEdge, slowEdge)
	if total.fullFIFO == 0 || total.pops == 0 || total.runts == 0 || total.badFCS == 0 || total.inRun == 0 || total.converted == 0 ||
		sumeEdge == 0 || slowEdge == 0 || total.rxDrops == 0 || total.woken == 0 || total.parked == 0 || total.between == 0 {
		t.Fatalf("the programs missed a case the net is for: %+v, on an edge: %d and %d", total, sumeEdge, slowEdge)
	}
}
