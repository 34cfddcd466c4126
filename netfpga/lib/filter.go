package lib

import "repro/netfpga/hw"

// Filter is a cut-through drop stage: pass decides each frame from its
// first beat, and a frame it rejects is dropped beat by beat without
// reaching the next stage. The stage counts passed and dropped frames,
// mounts them as its register block (passed_lo/_hi at 0x0, dropped_lo/_hi
// at 0x8) and offers pass to the twin as its decision. res is the
// comparator logic's resource estimate.
func Filter(name string, pass func(f *hw.Frame) bool, res hw.Resources) Stage {
	return func(p *Pipeline, in, out *hw.Stream) {
		m := newFilter(p.Dev.Dsn, name, in, out, pass, res)
		rf := hw.NewRegisterFile(name)
		rf.AddCounters(0x0, m.ctrs.List()...)
		p.Dev.MountRegs(rf)
	}
}

// newFilter adds a Filter stage's module to d.
func newFilter(d *hw.Design, name string, in, out *hw.Stream, pass func(f *hw.Frame) bool, res hw.Resources) *filter {
	m := &filter{name: name, in: in, out: out, pass: pass, res: res}
	m.ctrs.Add("passed", &m.passed)
	m.ctrs.Add("dropped", &m.dropped)
	d.AddModule(m)
	return m
}

// filter is the module a Filter stage builds. It consumes no conduit.
type filter struct {
	name    string
	in, out *hw.Stream
	pass    func(f *hw.Frame) bool
	res     hw.Resources

	inside          bool // between a frame's first and Last beat
	dropping        bool // ... of a dropped frame
	passed, dropped uint64
	ctrs            hw.Counters
}

// Name implements hw.Module.
func (f *filter) Name() string { return f.name }

// Resources implements hw.Module.
func (f *filter) Resources() hw.Resources { return f.res }

// Counters implements hw.CounterSource.
func (f *filter) Counters() *hw.Counters { return &f.ctrs }

// Reset implements hw.Resetter: the predicate is configuration and
// stays; the streams are the design's to empty.
func (f *filter) Reset() { f.inside, f.dropping, f.passed, f.dropped = false, false, 0, 0 }

// Tick implements hw.Module: one beat per cycle.
func (f *filter) Tick() bool {
	if !f.in.CanPop() {
		return false
	}
	if !f.out.CanPush() && !f.dropping {
		return true
	}
	b := f.in.Pop()
	if b.First() {
		f.inside, f.dropping = true, !f.pass(b.Frame)
		if f.dropping {
			f.dropped++
		} else {
			f.passed++
		}
	}
	if !f.dropping {
		f.out.Push(b)
	}
	if b.Last {
		f.inside, f.dropping = false, false
	}
	return true
}

// Rates implements hw.Rater. A first beat at the head is the verdict,
// the next cycle's decision; inside a frame the filter drops its beats
// or relays them. Between frames it declares nothing, so a beat pushed
// at it — the next frame's first — ends the window.
func (f *filter) Rates(w *hw.Window) {
	switch {
	case f.in.CanPop() && f.in.Peek().First():
		w.Horizon(1)
	case !f.inside:
	case f.dropping:
		w.Drain(f.in)
	default:
		w.Relay(f.in, f.out)
	}
}
