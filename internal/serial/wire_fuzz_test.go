package serial

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// The receiver forms FuzzMACWire drives the arithmetic wire toward.
const (
	formPull     = iota // PullReceiver, taken at the edge EdgeAfter gives
	formTimer           // SetReceiver, on the MAC's receive timer
	formObserver        // SetObserver, handed over when read
)

// macRx is one frame a receiver took: its arrival instant, the clock
// edge that takes it (0 while none has, or without a clock), its length,
// first byte and FCS.
type macRx struct {
	at, edge sim.Time
	n        int
	id       byte
	ok       bool
}

func (r macRx) String() string {
	return fmt.Sprintf("{at %d edge %d %dB #%d ok %v}", r.at, r.edge, r.n, r.id, r.ok)
}

// edgeSend is a burst a clock edge pushes.
type edgeSend struct {
	at     sim.Time
	frames [][]byte
}

// wireEnd is one side of FuzzMACWire: a simulator, with or without a
// clock whose edges push bursts, one direction of a wire, and what its
// receiver took.
type wireEnd struct {
	s         *sim.Sim
	clk       *sim.Clock
	edgeSends []edgeSend
	got       []macRx
	sent      []bool // each push's acceptance
	reads     []wireRead
	send      func(f *hw.Frame) bool
	state     func() string
	// edge runs at every clock edge after the edge's pushes.
	edge func()
}

// wireRead is what an event inside a run read at at.
type wireRead struct {
	at    sim.Time
	state string
}

// edgeFunc adapts a per-edge function to sim.Component: one edge per
// call.
type edgeFunc func() bool

func (f edgeFunc) Advance(int) (int, bool) { return 1, f() }

func newWireEnd(period sim.Time, batch int) *wireEnd {
	w := &wireEnd{s: sim.New()}
	if period != 0 {
		w.clk = w.s.NewClock("datapath", period)
		w.clk.SetBatch(batch)
		w.clk.Register(edgeFunc(func() bool {
			now := w.s.Now()
			for len(w.edgeSends) > 0 && w.edgeSends[0].at <= now {
				w.push(w.edgeSends[0].frames)
				w.edgeSends = w.edgeSends[1:]
			}
			w.edge()
			return true
		}))
	}
	return w
}

func (w *wireEnd) push(frames [][]byte) {
	for _, data := range frames {
		w.sent = append(w.sent, w.send(hw.NewFrame(data, 0)))
	}
}

// take records a frame the receiver took.
func (w *wireEnd) take(f *hw.Frame, at, edge sim.Time, ok bool) {
	w.got = append(w.got, macRx{at: at, edge: edge, n: len(f.Data), id: f.Data[0], ok: ok})
}

// newRefEnd builds the event wire's side. Its clock runs one edge per
// event, and an arrival's taking edge is the first edge that runs after
// its arrival event.
func newRefEnd(cfg Config, period, prop sim.Time) (*wireEnd, *refWire) {
	w := newWireEnd(period, 1)
	waiting := 0
	ref := newRefWire(w.s, cfg, prop, func(f *hw.Frame, ok bool) {
		w.take(f, w.s.Now(), 0, ok)
		waiting++
	})
	w.edge = func() {
		for i := len(w.got) - waiting; i < len(w.got); i++ {
			w.got[i].edge = w.s.Now()
		}
		waiting = 0
	}
	w.send = ref.Send
	w.state = func() string {
		return fmt.Sprintf("%s fifo %d frames %d bytes, next pop %d", ref.counters(), ref.txq.Len(), ref.txq.Bytes(), ref.NextPop())
	}
	return w, ref
}

// arithObserver hands what a MAC observes to take.
type arithObserver func(f *hw.Frame, at sim.Time, ok bool)

func (o arithObserver) Observe(f *hw.Frame, at sim.Time, ok bool) { o(f, at, ok) }

// newArithEnd builds the arithmetic wire's side, a → b, its receiver in
// form. A pulling receiver takes each arrival at the edge
// sim.Clock.EdgeAfter gives; the other forms record that edge.
func newArithEnd(cfg Config, period, prop sim.Time, form int) (*wireEnd, *MAC, *MAC, Observer, error) {
	w := newWireEnd(period, sim.DefaultBatch)
	rxCfg := cfg
	rxCfg.Name, rxCfg.BER = "b", 0
	a, b := NewMAC(w.s, cfg), NewMAC(w.s, rxCfg)
	if err := Connect(a, b, prop); err != nil {
		return nil, nil, nil, nil, err
	}
	edgeAfter := func(at sim.Time) sim.Time {
		if w.clk == nil {
			return 0
		}
		return w.clk.EdgeAfter(at-prop, at)
	}
	obs := arithObserver(func(f *hw.Frame, at sim.Time, ok bool) { w.take(f, at, edgeAfter(at), ok) })
	w.edge = func() {}
	switch form {
	case formPull:
		b.PullReceiver(func() {})
		w.edge = func() {
			now := w.s.Now()
			for at, end := b.NextArrival(); at != sim.Forever && w.clk.EdgeAfter(end, at) <= now; at, end = b.NextArrival() {
				f, at, ok := b.Arrival()
				w.take(f, at, now, ok)
			}
		}
	default:
		b.SetReceiver(func(f *hw.Frame, ok bool) { w.take(f, w.s.Now(), edgeAfter(w.s.Now()), ok) })
		if form == formObserver {
			b.SetObserver(obs)
		}
	}
	w.send = a.Send
	w.state = func() string {
		q := a.TxQueue()
		tx, rx := a.Counters().Map(), b.Counters().Map()
		return fmt.Sprintf("tx_frames=%d tx_bytes=%d tx_drops=%d tx_busy_ps=%d rx_frames=%d rx_bytes=%d fcs_errors=%d fifo %d frames %d bytes, next pop %d",
			tx["tx_frames"], tx["tx_bytes"], tx["tx_drops"], tx["tx_busy_ps"], rx["rx_frames"], rx["rx_bytes"], rx["fcs_errors"], q.Len(), q.Bytes(), a.NextPop())
	}
	return w, a, b, obs, nil
}

// macWireSizes are the frame sizes the fuzz sends: runts, timed as
// padded to the minimum, the minimum, and longer frames.
var macWireSizes = []int{1, 30, 59, 60, 61, 100, 300, 1000, 1514}

// macWireConfigs are the port configurations, clock periods (0: no
// clock), receiver forms and wire delays a program's first byte chooses
// among.
var (
	macWirePorts   = []func(string) Config{Eth10G, Eth40G, Eth100G, Eth1G}
	macWirePeriods = []sim.Time{0, 5 * sim.Nanosecond, 6250, 8 * sim.Nanosecond}
	macWireProps   = []sim.Time{5 * sim.Nanosecond, 0, 2 * sim.Nanosecond, 6 * sim.Nanosecond}
)

// macWireStats counts what a program reached, for TestMACWireEquivalence.
type macWireStats struct {
	onEdge, drops, badFCS, reads, exact, switches int
}

// runMACWire runs one program on the arithmetic wire and on refWire and
// fails t at the first difference. setup picks the port, the clock, the
// receiver form and the wire delay; prog's bytes choose the operations,
// and once they run out, seed's generator chooses until ops have run.
func runMACWire(t *testing.T, setup uint8, seed uint64, prog []byte, ops int) (st macWireStats) {
	cfg := macWirePorts[setup&3]("a")
	cfg.TxBufBytes, cfg.BER, cfg.Seed = 4<<10, 2e-5, seed
	period := macWirePeriods[setup>>2&3]
	form := int(setup>>4&3) % 3
	prop := macWireProps[setup>>6]
	if form == formPull && period == 0 {
		form = formTimer // nothing would take the arrivals
	}
	arith, a, b, obs, err := newArithEnd(cfg, period, prop, form)
	if err != nil {
		return st // a port Connect refuses
	}
	ref, rw := newRefEnd(cfg, period, prop)
	sides := []*wireEnd{arith, ref}
	minWire := a.wireTime(MinFrameBytes)

	r := sim.NewRand(seed)
	next := func() int {
		if len(prog) == 0 {
			return r.Intn(256)
		}
		c := prog[0]
		prog = prog[1:]
		return int(c)
	}
	burst := func() [][]byte {
		n, size := 1+next()%16, macWireSizes[next()%len(macWireSizes)]
		frames := make([][]byte, n)
		for i := range frames {
			frames[i] = make([]byte, size)
			frames[i][0] = byte(r.Uint64())
		}
		return frames
	}
	runTo := func(at sim.Time) {
		for _, w := range sides {
			w.s.RunUntil(at)
		}
	}
	last := sim.Time(0) // the last instant an operation is scheduled for
	checked := 0        // got entries compared with their edges
	check := func(what string, final bool) {
		t.Helper()
		if arith.s.Now() != ref.s.Now() {
			t.Fatalf("%s: Now %v, reference %v", what, arith.s.Now(), ref.s.Now())
		}
		if got, want := arith.state(), ref.state(); got != want {
			t.Fatalf("%s at %v: %s\nreference %s", what, ref.s.Now(), got, want)
		}
		if fmt.Sprint(arith.sent) != fmt.Sprint(ref.sent) {
			t.Fatalf("%s: pushes accepted %v, reference %v", what, arith.sent, ref.sent)
		}
		n := min(len(arith.got), len(ref.got))
		if final && len(arith.got) != len(ref.got) {
			t.Fatalf("%s: %d frames taken, reference %d", what, len(arith.got), len(ref.got))
		}
		for i := checked; i < n; i++ {
			g, w := arith.got[i], ref.got[i]
			if w.edge == 0 && g.edge != 0 && !final {
				g.edge = 0 // the reference's edge has not run yet
			}
			if g != w {
				t.Fatalf("%s: frame %d taken as %v, reference %v", what, i, g, w)
			}
			if g.edge != 0 || period == 0 {
				checked = i + 1
			}
		}
	}

	for op := 0; len(prog) > 0 || op < ops; op++ {
		now := ref.s.Now()
		switch c := next() % 8; c {
		case 0, 1: // a burst pushed from an event armed less than a minimum frame before it, or from a clock edge
			frames, at := burst(), now+sim.Time(next())*minWire/256
			if c == 1 && period != 0 {
				at = (at/period + 1) * period
				last = max(last, at)
				for _, w := range sides {
					i := len(w.edgeSends)
					for i > 0 && w.edgeSends[i-1].at > at {
						i--
					}
					w.edgeSends = append(w.edgeSends[:i], append([]edgeSend{{at, frames}}, w.edgeSends[i:]...)...)
				}
				continue
			}
			last = max(last, at)
			for _, w := range sides {
				w := w
				w.s.At(at, func() { w.push(frames) })
			}
		case 2: // a random span
			runTo(now + sim.Time(1+next())*sim.Time(1+next()%8)*10*sim.Nanosecond)
		case 3, 4: // to exactly the reference's next pop, or its next completion or arrival
			at := rw.NextPop()
			if c == 4 {
				at = rw.next()
			}
			if at == sim.Forever {
				continue
			}
			st.exact++
			runTo(at)
			check(fmt.Sprintf("op %d, at a wire instant", op), false)
		case 5: // a read from an event inside the next run
			at := now + sim.Time(1+next())*5*sim.Nanosecond + sim.Time(next()%3)
			last = max(last, at)
			for _, w := range sides {
				w := w
				w.s.At(at, func() { w.reads = append(w.reads, wireRead{at, w.state()}) })
			}
		case 6:
			check(fmt.Sprintf("op %d", op), false)
		case 7: // the observer removed or installed between runs
			if form == formPull {
				continue
			}
			st.switches++
			if form == formObserver {
				b.SetObserver(nil)
				form = formTimer
			} else {
				b.SetObserver(obs)
				form = formObserver
			}
		}
	}
	// Drain: every scheduled push, every frame on the wire, and the edge
	// that takes the last one.
	runTo(max(last, ref.s.Now()))
	for at := rw.next(); at != sim.Forever; at = rw.next() {
		runTo(at)
	}
	runTo(ref.s.Now() + 2*period)
	check("drained", true)
	if len(arith.reads) != len(ref.reads) {
		t.Fatalf("%d reads inside runs, reference %d", len(arith.reads), len(ref.reads))
	}
	for i, rd := range ref.reads {
		if rw.instants[rd.at] {
			continue // tied with a wire event, which the read may run before
		}
		st.reads++
		if arith.reads[i] != rd {
			t.Fatalf("read %d at %v: %s\nreference %s", i, rd.at, arith.reads[i].state, rd.state)
		}
	}
	for _, g := range arith.got {
		if period != 0 && g.at%period == 0 {
			st.onEdge++
		}
		if !g.ok {
			st.badFCS++
		}
	}
	st.drops = int(*rw.txq.DropCounter("", hw.Count).Ptr)
	return st
}

// FuzzMACWire holds the arithmetic wire to the event wire it replaced
// (refWire), one direction of a link at a time, on 1G, 10G, 40G and 100G
// ports, with no clock or one of the boards' 5, 6.25 and 8 ns clocks,
// wire delays of 0, 2, 5 and 6 ns, and each receiver form: a pulling
// receiver that takes each arrival at the edge sim.Clock.EdgeAfter
// gives, a receiver on the MAC's receive timer, and an observer, removed
// or installed between runs. Programs (runMACWire) push bursts of random
// frames, runts included, into a 4 KB FIFO that overflows, from events
// and from clock edges; run random spans and to exactly the reference's
// next pop, completion or arrival; and read from events inside runs.
// The bit error rate is nonzero. Arrival instants, lengths, first bytes
// and FCS draws of every frame, the edge that takes it (the first edge
// after its arrival event on the reference), every counter of both MACs,
// the FIFO, the next pop, which pushes were accepted, in-run reads
// (those at a wire event's instant excepted) and Now must be identical.
func FuzzMACWire(f *testing.F) {
	for setup := 0; setup < 256; setup += 7 {
		f.Add(uint8(setup), uint64(setup+1), []byte{})
	}
	for _, prog := range []string{
		"\x00\x08\x08\x10\x01\x0f\x06\x00\x04\x03\x04\x04\x04\x06",
		"\x01\x10\x07\x80\x01\x10\x02\x40\x05\x02\x01\x03\x07\x04\x04\x07\x04",
	} {
		for _, setup := range []uint8{0x04, 0x18, 0x2c, 0x34, 0x48, 0x9c} {
			f.Add(setup, uint64(setup), []byte(prog))
		}
	}
	f.Fuzz(func(t *testing.T, setup uint8, seed uint64, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		runMACWire(t, setup, seed, prog, 40)
	})
}

// TestMACWireEquivalence runs random programs on every setup and checks
// the net reached what it is for: arrivals on a clock edge on each
// period, FIFO overflows, corrupted frames, reads inside runs, runs to
// exactly a wire instant and observers removed and installed.
func TestMACWireEquivalence(t *testing.T) {
	var total macWireStats
	onEdge := map[sim.Time]int{}
	for setup := 0; setup < 256; setup++ {
		st := runMACWire(t, uint8(setup), uint64(setup), nil, 40)
		onEdge[macWirePeriods[setup>>2&3]] += st.onEdge
		total.drops += st.drops
		total.badFCS += st.badFCS
		total.reads += st.reads
		total.exact += st.exact
		total.switches += st.switches
	}
	t.Logf("%+v, arrivals on an edge by period: %v", total, onEdge)
	if total.drops == 0 || total.badFCS == 0 || total.reads == 0 || total.exact == 0 || total.switches == 0 ||
		onEdge[5*sim.Nanosecond] == 0 || onEdge[6250] == 0 || onEdge[8*sim.Nanosecond] == 0 {
		t.Fatalf("the programs missed a case the net is for: %+v, on an edge %v", total, onEdge)
	}
}
