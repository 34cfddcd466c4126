package lib

import "repro/netfpga/hw"

// InputArbiter merges N input streams into one, packet-atomically, with
// round-robin fairness — the input_arbiter of every reference pipeline.
// Once a frame's first beat is granted, the arbiter locks onto that input
// until the Last beat, moving one beat per cycle.
type InputArbiter struct {
	name string
	ins  []*hw.Stream
	out  *hw.Stream

	next   int // round-robin pointer
	locked int // input currently locked, -1 if none

	grants  []uint64
	packets uint64
	ctrs    hw.Counters
}

// NewInputArbiter creates the arbiter and registers it with the design.
func NewInputArbiter(d *hw.Design, ins []*hw.Stream, out *hw.Stream) *InputArbiter {
	if len(ins) == 0 {
		panic("lib: arbiter needs at least one input")
	}
	a := &InputArbiter{name: "input_arbiter", ins: ins, out: out,
		locked: -1, grants: make([]uint64, len(ins))}
	a.ctrs.Grow(1 + len(ins))
	a.ctrs.Add("packets", &a.packets)
	for i := range a.grants {
		a.ctrs.Add(grantsInNames.At(i), &a.grants[i])
	}
	d.AddModule(a)
	for _, in := range ins {
		d.Consume(a, in)
	}
	return a
}

// Name implements hw.Module.
func (a *InputArbiter) Name() string { return a.name }

// Resources implements hw.Module: scales with input count.
func (a *InputArbiter) Resources() hw.Resources {
	n := len(a.ins)
	return hw.Resources{LUTs: 1800 + 450*n, FFs: 2400 + 600*n, BRAM36: 2 * n}
}

// Tick implements hw.Module.
func (a *InputArbiter) Tick() bool {
	if !a.out.CanPush() {
		// Output blocked; still busy if anything waits.
		return a.pending()
	}
	if a.locked < 0 {
		// Grant: scan round-robin from next. Wrap by subtraction, not
		// modulo — this scan runs every cycle and a variable modulo is
		// an integer divide.
		c := a.next
		for i := 0; i < len(a.ins); i++ {
			if a.ins[c].CanPop() {
				a.locked = c
				a.grants[c]++
				a.packets++
				a.next = c + 1
				if a.next == len(a.ins) {
					a.next = 0
				}
				break
			}
			c++
			if c == len(a.ins) {
				c = 0
			}
		}
		if a.locked < 0 {
			return false // all inputs idle
		}
	}
	in := a.ins[a.locked]
	if !in.CanPop() {
		return true // mid-packet bubble upstream; hold the lock
	}
	b := in.Pop()
	a.out.Push(b)
	if b.Last {
		a.locked = -1
	}
	return true
}

// Reset implements hw.Resetter.
func (a *InputArbiter) Reset() {
	a.next, a.locked = 0, -1
	clear(a.grants)
	a.packets = 0
}

func (a *InputArbiter) pending() bool {
	if a.locked >= 0 {
		return true
	}
	for _, in := range a.ins {
		if in.CanPop() {
			return true
		}
	}
	return false
}

// Counters implements hw.CounterSource: per-input grant counts expose
// fairness.
func (a *InputArbiter) Counters() *hw.Counters { return &a.ctrs }
