// Package fleet is the parallel experiment executor: it shards many
// independent simulated devices across a bounded worker pool, one
// goroutine per in-flight device. The physical NetFPGA platform exists
// so that many experiments can run against many board configurations
// quickly; fleet is the software analogue — a Job describes one device
// (board + project + workload + stop condition), a Runner executes a
// batch of them, and each Result carries the workload's value, the
// device's final simulated time and event count, and any error. A Drive
// that wants the device's counters reads them itself (Ctx.Dev.Snapshot).
//
// Determinism is the core contract: every stochastic element of a job
// draws from a per-device RNG seeded purely from (BaseSeed, job index),
// devices share no mutable state, and result slots are written by index
// — so the same seeds produce byte-identical per-device results
// whatever the worker count or scheduling order.
//
// There is one execution model: a job runs from its first event to its
// last on the worker that claimed it. Load is balanced at job
// granularity only — workers claim the job with the longest declared
// weight first (see Job.Weight), which is what keeps the one long cell
// of a tail-heavy batch from starting last.
package fleet

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/netfpga"
)

// Stop bounds how far a job's Drive function may advance its device
// through the Ctx helpers. The zero value means unbounded.
type Stop struct {
	// SimTime is the maximum simulated time Drive may advance past the
	// point it started at (0 = unlimited).
	SimTime netfpga.Time
	// Events is the maximum number of simulation events the device may
	// execute during Drive (0 = unlimited).
	Events uint64
}

// Job describes one device-experiment: which board to instantiate, how
// to assemble the project onto it, and the workload that drives it.
type Job struct {
	// Name labels the job in results and errors.
	Name string
	// Board is the platform to instantiate. Ignored when NoDevice.
	Board netfpga.BoardSpec
	// Options tune instantiation. A zero Options.Seed is replaced by
	// the runner's derived per-job seed, so error injection stays
	// deterministic per device.
	Options netfpga.Options
	// NoDevice marks a pure-compute job (for example a raw memory
	// characterisation that builds its own simulator): no device is
	// instantiated and Ctx.Dev is nil.
	NoDevice bool
	// Build assembles the project pipeline onto the fresh device
	// (typically Project.Build). Optional.
	Build func(*netfpga.Device) error
	// Acquire, when set, supplies the device in place of NewDevice +
	// Build — typically a reset device from a cache of built ones. It
	// gets the effective options (seed and fidelity resolved) and returns
	// the device with the release the runner hands it back through once
	// Drive has returned and the result is read: clean is true only when
	// the job neither failed, panicked nor was canceled.
	Acquire func(opts netfpga.Options) (dev *netfpga.Device, release func(clean bool), err error)
	// Drive runs the workload against the device and returns the
	// job's value. Required.
	Drive func(*Ctx) (any, error)
	// Stop bounds Drive's Ctx.RunFor stepping.
	Stop Stop
	// Weight is an optional claim-order hint: the job's expected wall
	// cost relative to its batch peers (any consistent unit). Zero
	// derives the hint from the declared Stop window. Workers claim the
	// heaviest unclaimed job first; the hint never affects results.
	Weight int64
}

// claimWeight is the job's declared cost for claim ordering: Weight,
// else the sim-time window, else the event bound.
func (j Job) claimWeight() int64 {
	switch {
	case j.Weight != 0:
		return j.Weight
	case j.Stop.SimTime != 0:
		return int64(j.Stop.SimTime)
	}
	return int64(j.Stop.Events)
}

// Ctx is the per-job execution context handed to Drive: the device, the
// job's deterministic RNG, and budgeted stepping helpers.
type Ctx struct {
	// Dev is the instantiated device (nil for NoDevice jobs).
	Dev *netfpga.Device
	// Name and Index identify the job within its batch.
	Name  string
	Index int
	// Seed is the job's derived seed; Rand is a generator seeded with
	// it. All job-local randomness must come from here — never from a
	// source shared between devices.
	Seed uint64
	Rand *sim.Rand

	stop    Stop
	started netfpga.Time
	events0 uint64
	done    <-chan struct{}
}

// ErrStopped is returned (wrapped) when a job exhausts its Stop budget.
var ErrStopped = errors.New("fleet: stop condition reached")

// ErrCanceled is returned (wrapped) for jobs abandoned after the batch
// context was canceled.
var ErrCanceled = errors.New("fleet: batch canceled")

// Canceled reports whether the batch has been canceled; long workload
// loops should poll it so one bad device cannot wedge the pool's exit.
func (c *Ctx) Canceled() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Budget reports the remaining simulated-time and event budget. A zero
// field in Stop reports as unlimited (ok=false for that dimension).
func (c *Ctx) Budget() (simLeft netfpga.Time, eventsLeft uint64, bounded bool) {
	if c.Dev == nil {
		return 0, 0, false
	}
	bounded = c.stop.SimTime > 0 || c.stop.Events > 0
	simLeft = netfpga.Time(1<<62 - 1)
	if c.stop.SimTime > 0 {
		used := c.Dev.Now() - c.started
		if used >= c.stop.SimTime {
			simLeft = 0
		} else {
			simLeft = c.stop.SimTime - used
		}
	}
	eventsLeft = ^uint64(0)
	if c.stop.Events > 0 {
		used := c.Dev.Sim.Executed() - c.events0
		if used >= c.stop.Events {
			eventsLeft = 0
		} else {
			eventsLeft = c.stop.Events - used
		}
	}
	return simLeft, eventsLeft, bounded
}

// RunFor advances the device by up to d of simulated time, clipped to
// the job's Stop budget and abandoned on cancellation. It reports false
// once the budget is exhausted or the batch is canceled, so workload
// loops can use it directly as their stop condition:
//
//	for c.RunFor(10 * netfpga.Microsecond) {
//		topUpTraffic()
//	}
func (c *Ctx) RunFor(d netfpga.Time) bool {
	if c.Dev == nil {
		panic("fleet: RunFor on a NoDevice job")
	}
	if c.Canceled() {
		return false
	}
	simLeft, eventsLeft, bounded := c.Budget()
	if bounded && (simLeft == 0 || eventsLeft == 0) {
		return false
	}
	if d > simLeft {
		d = simLeft
	}
	if c.stop.Events > 0 {
		// Run within the event budget; RunBudgeted fences clock
		// batching to the remaining budget and the deadline, so the
		// stopping point is identical for every batch size, and an
		// exhausted budget pauses without advancing residual time.
		if !c.Dev.RunBudgeted(c.Dev.Now()+d, eventsLeft) {
			return false
		}
	} else {
		c.Dev.RunFor(d)
	}
	simLeft, eventsLeft, bounded = c.Budget()
	return !bounded || (simLeft > 0 && eventsLeft > 0)
}

// Result is the outcome of one job.
type Result struct {
	// Index is the job's position in the batch; Name and Seed echo the
	// job's identity.
	Index int
	Name  string
	Seed  uint64
	// Value is whatever Drive returned.
	Value any
	// SimTime is the device's final simulated time; Events the number
	// of simulation events it executed.
	SimTime netfpga.Time
	Events  uint64
	// Err is the job's failure, if any: a Build or Drive error, a
	// recovered panic, or ErrCanceled for abandoned jobs. Other jobs
	// in the batch are unaffected.
	Err error
}

// errValue extracts a typed value from a result, failing loudly on
// mismatch — experiments use Value to carry their row data.
func (r Result) errValue() error {
	if r.Err != nil {
		return fmt.Errorf("fleet: job %q (index %d): %w", r.Name, r.Index, r.Err)
	}
	return nil
}

// MustValue returns the result's Value, panicking if the job failed.
// Experiment code uses it where a per-device failure is a bug, not a
// condition to handle.
func (r Result) MustValue() any {
	if err := r.errValue(); err != nil {
		panic(err)
	}
	return r.Value
}
