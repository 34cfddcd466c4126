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
		m := &filter{name: name, in: in, out: out, pass: pass, res: res}
		m.ctrs.Add("passed", &m.passed)
		m.ctrs.Add("dropped", &m.dropped)
		p.Dev.Dsn.AddModule(m)
		rf := hw.NewRegisterFile(name)
		rf.AddCounters(0x0, m.ctrs.List()...)
		p.Dev.MountRegs(rf)
	}
}

// filter is the module a Filter stage builds. It consumes no conduit
// and declares no rate.
type filter struct {
	name    string
	in, out *hw.Stream
	pass    func(f *hw.Frame) bool
	res     hw.Resources

	dropping        bool // inside a dropped frame
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
func (f *filter) Reset() { f.dropping, f.passed, f.dropped = false, 0, 0 }

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
		f.dropping = !f.pass(b.Frame)
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
		f.dropping = false
	}
	return true
}
