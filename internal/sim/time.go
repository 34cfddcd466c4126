// Package sim provides the deterministic discrete-event simulation core
// that every gonetfpga subsystem runs on.
//
// Time is integer picoseconds. All state transitions happen inside events
// executed by a single goroutine in (time, sequence) order, so a simulation
// is bit-for-bit reproducible: no goroutines, no wall-clock, no map
// iteration in the hot path.
//
// Two scheduling primitives are offered:
//
//   - one-shot events (Sim.After, Sim.At, Timer) for message-passing style
//     models such as wires, DMA completions and memory responses, and
//   - gateable clock domains (Clock) for cycle-stepped models such as the
//     FPGA datapath. A clock stops self-scheduling as soon as every
//     registered component reports idle, and is re-armed by Wake, so long
//     idle stretches cost nothing.
//
// "How far may this run before something outside must be looked at" has
// one answer in the package. A clock drives its Component through one
// method, Advance(n) (k, busy); what limits an advance from outside the
// domain — the next event, the run's deadline, the run's event budget —
// is Sim.inline and its closed form Clock.Bound; and one loop,
// Sim.Run(deadline, eventBudget, floor), is the only place the deadline,
// the budget and the floor are set. A busy clock's batch ends at the
// first event due before its next edge: the edge re-arms through the
// heap, as it does when the batch budget runs out, and the run loop runs
// that event. Every edge as its own event (Clock.SetBatch(1)) is the
// reference all of it is tested against.
package sim

import "fmt"

// Time is a point in simulated time, in picoseconds. The zero Time is the
// simulation epoch. A Time is also used for durations; int64 picoseconds
// cover about 106 days, far beyond any simulated experiment.
type Time int64

// Duration units, expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders t with an adaptive unit, e.g. "1.500us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// PeriodOfMHz returns the period of a clock running at freqMHz megahertz,
// rounded to the nearest picosecond. It panics on non-positive frequencies.
func PeriodOfMHz(freqMHz float64) Time {
	if freqMHz <= 0 {
		panic("sim: non-positive clock frequency")
	}
	return Time(1e6/freqMHz + 0.5)
}

// BitTime returns the time taken to serialise bits at rate gbps (gigabits
// per second), rounded to the nearest picosecond.
func BitTime(bits int64, gbps float64) Time {
	if gbps <= 0 {
		panic("sim: non-positive line rate")
	}
	return Time(float64(bits)*1000.0/gbps + 0.5)
}
