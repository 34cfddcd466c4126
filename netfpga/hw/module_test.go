package hw

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// passthrough moves beats from in to out, one per cycle.
type passthrough struct {
	name    string
	in, out *Stream
	res     Resources
	fmax    float64
	moved   uint64
	ctrs    Counters
}

func (p *passthrough) Name() string         { return p.name }
func (p *passthrough) Resources() Resources { return p.res }
func (p *passthrough) MaxFreqMHz() float64  { return p.fmax }
func (p *passthrough) Counters() *Counters {
	if p.ctrs.Len() == 0 {
		p.ctrs.Add("moved", &p.moved)
	}
	return &p.ctrs
}
func (p *passthrough) Tick() bool {
	if p.in.CanPop() && p.out.CanPush() {
		p.out.Push(p.in.Pop())
		p.moved++
		return true
	}
	return p.in.CanPop()
}

func newTestDesign(t *testing.T) (*sim.Sim, *Design) {
	t.Helper()
	s := sim.New()
	clk := s.NewClockMHz("dp", DefaultClockMHz)
	return s, NewDesign("test", clk, 32)
}

func TestDesignPipelineMovesFrames(t *testing.T) {
	s, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	mid := d.NewStream("mid", 8)
	out := d.NewStream("out", 8)
	d.AddModule(&passthrough{name: "stage1", in: in, out: mid})
	d.AddModule(&passthrough{name: "stage2", in: mid, out: out})

	f := NewFrame(make([]byte, 96), 0) // 3 beats
	if !in.PushFrame(f, d.BusBytes()) {
		t.Fatal("push failed")
	}
	s.RunFor(sim.Microsecond)
	if out.Len() != 3 {
		t.Fatalf("out has %d beats, want 3", out.Len())
	}
}

func TestDesignClockGatesAndWakes(t *testing.T) {
	s, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	d.AddModule(&passthrough{name: "p", in: in, out: out})
	s.RunFor(sim.Microsecond)
	ticksIdle := d.Clock().Ticks()

	// Inject from an event: the push must wake the clock.
	s.After(sim.Microsecond, func() {
		in.PushFrame(NewFrame(make([]byte, 32), 0), 32)
	})
	s.RunFor(10 * sim.Microsecond)
	if out.Len() != 1 {
		t.Fatal("frame not processed after wake")
	}
	if d.Clock().Ticks() <= ticksIdle {
		t.Fatal("clock never woke")
	}
	// And it should gate again: far fewer ticks than elapsed cycles.
	if d.Clock().Ticks() > ticksIdle+10 {
		t.Fatalf("clock ran %d ticks, expected gating", d.Clock().Ticks())
	}
}

func TestDesignBackpressurePropagates(t *testing.T) {
	s, d := newTestDesign(t)
	in := d.NewStream("in", 16)
	mid := d.NewStream("mid", 2) // narrow middle
	out := d.NewStream("out", 2)
	d.AddModule(&passthrough{name: "a", in: in, out: mid})
	d.AddModule(&passthrough{name: "b", in: mid, out: out})
	// Fill: out never drained, so everything jams.
	for i := 0; i < 8; i++ {
		in.PushFrame(NewFrame(make([]byte, 32), 0), 32)
	}
	s.RunFor(sim.Microsecond)
	if out.Len() != 2 || mid.Len() != 2 {
		t.Fatalf("expected full mid/out, got mid=%d out=%d", mid.Len(), out.Len())
	}
	if in.Len() != 4 {
		t.Fatalf("in should hold the overflow, got %d", in.Len())
	}
	// Drain out; flow resumes.
	s.After(0, func() {
		for out.CanPop() {
			out.Pop()
		}
		d.Wake()
	})
	s.RunFor(sim.Microsecond)
	if in.Len() != 2 { // two more moved forward
		t.Fatalf("in=%d after drain, want 2", in.Len())
	}
}

func TestSynthesizeUtilization(t *testing.T) {
	_, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	d.AddModule(&passthrough{name: "p", in: in, out: out,
		res: Resources{LUTs: 5000, FFs: 8000, BRAM36: 10}})
	rep, err := d.Synthesize(Virtex7_690T)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.LUTs < 14000 { // module + infrastructure
		t.Fatalf("total LUTs = %d, want >= 14000", rep.Total.LUTs)
	}
	u := rep.Utilization()
	if u["LUT"] <= 0 || u["LUT"] >= 100 {
		t.Fatalf("utilization %v out of range", u["LUT"])
	}
	if !strings.Contains(rep.String(), "TOTAL") {
		t.Fatal("report missing TOTAL row")
	}
}

func TestSynthesizeOverCapacityFails(t *testing.T) {
	_, d := newTestDesign(t)
	d.AddModule(&passthrough{name: "huge", in: NewStream("i", 1), out: NewStream("o", 1),
		res: Resources{LUTs: 1 << 20}})
	if _, err := d.Synthesize(Kintex7_325T); err == nil {
		t.Fatal("oversized design synthesized")
	}
}

func TestSynthesizeTimingFailure(t *testing.T) {
	_, d := newTestDesign(t) // 200 MHz clock
	d.AddModule(&passthrough{name: "slow", in: NewStream("i", 1), out: NewStream("o", 1),
		res: Resources{LUTs: 100}, fmax: 150})
	if _, err := d.Synthesize(Virtex7_690T); err == nil {
		t.Fatal("design with Fmax 150 passed a 200 MHz clock")
	} else if !strings.Contains(err.Error(), "timing") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestDesignStatsAggregation(t *testing.T) {
	s, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	d.AddModule(&passthrough{name: "p", in: in, out: out})
	in.PushFrame(NewFrame(make([]byte, 32), 0), 32)
	s.RunFor(sim.Microsecond)
	st := d.Stats()
	if st["p.moved"] != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestBRAMForBytes(t *testing.T) {
	if BRAMForBytes(0) != 0 || BRAMForBytes(1) != 1 || BRAMForBytes(4096) != 1 || BRAMForBytes(4097) != 2 {
		t.Fatal("BRAMForBytes wrong")
	}
}

// TestAdvanceBeyondPlanRunsOneTick: Advance may be asked for any number
// of edges; a design that cannot prove a window for them — here a
// runnable module that declares no rates — runs exactly one Tick and
// says so, never cycles nobody solved.
func TestAdvanceBeyondPlanRunsOneTick(t *testing.T) {
	_, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	p := &passthrough{name: "stage", in: in, out: out}
	d.AddModule(p)
	if !in.PushFrame(NewFrame(make([]byte, 160), 0), d.BusBytes()) { // 5 beats
		t.Fatal("push failed")
	}
	for want := uint64(1); want <= 3; want++ {
		k, busy := d.Advance(64)
		if k != 1 || !busy {
			t.Fatalf("Advance(64) = (%d, %v), want one busy edge", k, busy)
		}
		if p.moved != want {
			t.Fatalf("after %d Advance calls the module moved %d beats", want, p.moved)
		}
	}
	if windows, cycles := d.WindowStats(); windows != 0 || cycles != 0 {
		t.Fatalf("opened %d windows over %d cycles with nothing declared", windows, cycles)
	}
	if got := d.ModuleTicks()["stage"]; got != 3 {
		t.Fatalf("module invoked %d times, want 3", got)
	}
}

// TestConsumeWakesOnlyTheConsumer: once every stage has gone idle, a push
// into a conduit wired with Consume re-runs its consumer alone, while a
// push into an unwired design conduit still wakes every module.
func TestConsumeWakesOnlyTheConsumer(t *testing.T) {
	s, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	mid := d.NewStream("mid", 8)
	out := NewStream("out", 8) // outside the design: a push into it wakes nothing
	first := &passthrough{name: "first", in: in, out: mid}
	second := &passthrough{name: "second", in: mid, out: out}
	d.AddModule(first)
	d.AddModule(second)
	d.Consume(second, mid)
	s.RunFor(sim.Microsecond)
	before := d.ModuleTicks()

	s.After(0, func() { mid.Push(Beat{Frame: NewFrame(make([]byte, 32), 0), End: 32, Last: true}) })
	s.RunFor(sim.Microsecond)
	after := d.ModuleTicks()
	if out.Len() != 1 || after["first"] != before["first"] || after["second"] == before["second"] {
		t.Fatalf("a push into the wired stream: out %d beats, ticks %v -> %v; want 1 beat and only second ticked",
			out.Len(), before, after)
	}

	s.After(0, func() { in.Push(Beat{Frame: NewFrame(make([]byte, 32), 0), End: 32, Last: true}) })
	s.RunFor(sim.Microsecond)
	if got := d.ModuleTicks(); got["first"] == after["first"] || got["second"] == after["second"] {
		t.Fatalf("a push into an unwired stream did not wake every module: ticks %v -> %v", after, got)
	}
}

// TestWiringAnUnregisteredModulePanics: wiring a wake to a module the
// design does not hold is a misordered constructor; it must fail loudly,
// naming the module, not fall back to waking everything.
func TestWiringAnUnregisteredModulePanics(t *testing.T) {
	_, d := newTestDesign(t)
	in := d.NewStream("in", 8)
	orphan := &passthrough{name: "orphan", in: in, out: d.NewStream("out", 8)}
	for name, wire := range map[string]func(){
		"Consume": func() { d.Consume(orphan, in) },
		"Waker":   func() { d.Waker(orphan) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "orphan") {
					t.Errorf("%s on an unregistered module: panic %q, want one naming it", name, msg)
				}
			}()
			wire()
		}()
	}
}
