package lib

import (
	"fmt"

	"repro/internal/core"
	"repro/netfpga/hw"
)

// Twin is the timing-free model of the reference pipeline built on dev:
// the stages' own decisions, applied in tick order between the input
// arbiter and the output queues. A Lookup stage offers its LookupFunc, a
// Filter stage its predicate; any other module there makes the design
// sim-only, and Twin's error names it.
//
// The returned function takes a private frame as it leaves the arbiter,
// its Meta as the attach modules set it, and applies each decision to
// it in order. It returns a copy of every frame punted to the CPU queue
// on the way, and leaves in f.Meta.DstPorts the output-queue destinations
// the frame leaves by: 0 when a decision dropped it.
//
// The decisions read and write the state of the project built on dev
// (its tables, its counters), so dev must be a device the twin owns. It
// never runs: a decision that reads the device's time sees 0.
func Twin(dev *core.Device) (func(f *hw.Frame) (punted []*hw.Frame), error) {
	var steps []func(f *hw.Frame) (keep bool, punt *hw.Frame)
	var outs uint32
	inStages := false
	for _, m := range dev.Dsn.Modules() {
		switch m := m.(type) {
		case *InputArbiter:
			inStages = true
		case *OutputQueues:
			for _, bit := range m.bits {
				outs |= 1 << uint(bit)
			}
			inStages = false
		case *OutputPortLookup:
			if inStages {
				steps = append(steps, m.decide)
			}
		case *filter:
			if inStages {
				steps = append(steps, func(f *hw.Frame) (bool, *hw.Frame) { return m.pass(f), nil })
			}
		default:
			if inStages {
				return nil, fmt.Errorf("lib: stage module %s offers no decision; the design is sim-only", m.Name())
			}
		}
	}
	if outs == 0 {
		return nil, fmt.Errorf("lib: the design on %s is no reference pipeline; it is sim-only", dev.Board.Name)
	}
	return func(f *hw.Frame) (punted []*hw.Frame) {
		for _, step := range steps {
			keep, punt := step(f)
			if punt != nil {
				punted = append(punted, punt)
			}
			if !keep {
				f.Meta.DstPorts = 0
				return punted
			}
		}
		f.Meta.DstPorts &= outs
		return punted
	}, nil
}

// decide is the lookup's decision without its pipeline: whether the
// frame goes on to the next stage, and the copy punted to the CPU queue,
// if any, as Tick's decision stage disposes of them.
func (l *OutputPortLookup) decide(f *hw.Frame) (keep bool, punt *hw.Frame) {
	switch l.fn(f) {
	case Drop:
		return false, nil
	case ToCPU:
		if l.cpu != nil {
			punt = f.Clone()
		}
	}
	return f.Meta.DstPorts != 0, punt
}
