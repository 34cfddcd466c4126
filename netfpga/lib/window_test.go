package lib

import (
	"testing"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// bystander is a user-written module that declares no rates (it does
// not implement hw.Rater): it counts its Ticks and is busy or idle as
// told.
type bystander struct {
	busy  bool
	ticks int
}

func (b *bystander) Name() string            { return "bystander" }
func (b *bystander) Resources() hw.Resources { return hw.Resources{} }
func (b *bystander) Tick() bool              { b.ticks++; return b.busy }

// runWithBystander streams 1514-byte frames both ways through the
// two-port rig with an undeclared module in the design.
func runWithBystander(t *testing.T, by *bystander, frameBurst int) (r *rig, windows, cycles uint64) {
	t.Helper()
	r = newRig(t, crossover, 2)
	r.d.SetFrameBurst(frameBurst)
	r.d.AddModule(by)
	for i := 0; i < 8; i++ {
		r.taps[i%2].Send(hw.NewFrame(frame(1514, byte(i)), 0))
	}
	r.s.RunFor(20 * sim.Microsecond)
	if got := len(r.rx[0]) + len(r.rx[1]); got != 8 {
		t.Fatalf("delivered %d frames, want 8", got)
	}
	windows, cycles = r.d.WindowStats()
	return r, windows, cycles
}

// TestIdleUndeclaredModuleKeepsWindows: a parked module that declares
// nothing costs the rest of the design nothing — windows open around it,
// it is never invoked, and every delivery lands when it would have.
func TestIdleUndeclaredModuleKeepsWindows(t *testing.T) {
	ref, _, _ := runWithBystander(t, &bystander{}, 1)
	by := &bystander{}
	r, windows, cycles := runWithBystander(t, by, 0)
	if windows == 0 || cycles < 200 {
		t.Fatalf("an idle undeclared module shut windows off: %d windows, %d cycles", windows, cycles)
	}
	if by.ticks != 1 {
		t.Errorf("idle bystander ticked %d times, want once (then parked)", by.ticks)
	}
	for p := range ref.rxTime {
		for i, at := range ref.rxTime[p] {
			if r.rxTime[p][i] != at {
				t.Errorf("port %d frame %d delivered at %v, per-cycle at %v", p, i, r.rxTime[p][i], at)
			}
		}
	}
	if r.s.Executed() != ref.s.Executed() {
		t.Errorf("executed %d events, per-cycle %d", r.s.Executed(), ref.s.Executed())
	}
}

// TestRunnableUndeclaredModuleForcesPerCycle: while such a module is
// runnable its Tick is the only description of it there is, so every
// cycle runs as a Tick.
func TestRunnableUndeclaredModuleForcesPerCycle(t *testing.T) {
	by := &bystander{busy: true}
	r, windows, _ := runWithBystander(t, by, 0)
	if windows != 0 {
		t.Fatalf("%d windows opened over a runnable module that declares nothing", windows)
	}
	if uint64(by.ticks) != r.d.Clock().Ticks() {
		t.Errorf("bystander ticked %d times over %d datapath cycles", by.ticks, r.d.Clock().Ticks())
	}
}

// sink pops whatever reaches it and declares no rates.
type sink struct {
	in    *hw.Stream
	beats int
}

func (s *sink) Name() string            { return "sink" }
func (s *sink) Resources() hw.Resources { return hw.Resources{} }
func (s *sink) Tick() bool {
	if s.in.CanPop() {
		s.in.Pop()
		s.beats++
	}
	return s.in.CanPop()
}

// TestPushAtUndeclaredConsumerForcesPerCycle: the sink is parked between
// beats, so it is never asked and never forces anything by being
// runnable — but each declared push lands on a stream (default Wake
// wiring) whose consumer declared nothing, and that alone keeps every
// cycle a Tick.
func TestPushAtUndeclaredConsumerForcesPerCycle(t *testing.T) {
	s := sim.New()
	d := hw.NewDesign("t", s.NewClockMHz("dp", 200), 32)
	q := d.NewFrameQueue("q", 4, 0)
	out := d.NewStream("out", 8)
	NewQueueSource(d, "src", q, out)
	sk := &sink{in: out}
	d.AddModule(sk)
	q.Push(hw.NewFrame(frame(1514, 1), 0))
	s.RunFor(sim.Microsecond)
	if sk.beats != 48 {
		t.Fatalf("sink saw %d beats, want 48", sk.beats)
	}
	if windows, _ := d.WindowStats(); windows != 0 {
		t.Fatalf("%d windows opened on a stream whose consumer declares nothing", windows)
	}
}
