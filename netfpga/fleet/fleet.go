// Package fleet is the parallel experiment executor: it shards many
// independent simulated devices across a bounded worker pool, one
// goroutine per in-flight device. The physical NetFPGA platform exists
// so that many experiments can run against many board configurations
// quickly; fleet is the software analogue — a Job describes one device
// (board + project + workload), a Runner executes a batch of them, and
// each Result carries the workload's value, the device's final
// simulated time and event count, and any error. A Drive that wants the
// device's counters reads them itself (Ctx.Dev.Snapshot). Its one
// caller is the sweep package, which compiles every cell into a Job.
//
// Determinism is the core contract: a job's seed is its Options.Seed (a
// sweep derives it from the cell key), every stochastic element of the
// job draws from a per-device RNG seeded with it, devices share no
// mutable state, and result slots are written by index — so the same
// seeds produce byte-identical per-device results whatever the worker
// count or scheduling order.
//
// There is one execution model: a job runs from its first event to its
// last on the worker that claimed it, and workers claim jobs in index
// order.
package fleet

import (
	"errors"

	"repro/internal/sim"
	"repro/netfpga"
)

// Job describes one device-experiment: which board to instantiate, how
// to assemble the project onto it, and the workload that drives it.
type Job struct {
	// Name labels the job in results and errors.
	Name string
	// Board is the platform to instantiate. Ignored when NoDevice.
	Board netfpga.BoardSpec
	// Options tune instantiation. Options.Seed is the job's seed: it
	// seeds the device (error injection included) and Ctx.Rand.
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
	// gets the effective options (fidelity resolved) and returns the
	// device with the release the runner hands it back through once
	// Drive has returned and the result is read: clean is true only when
	// the job neither failed, panicked nor was canceled. An Acquire that
	// fails hands nothing back; its release is never called.
	Acquire func(opts netfpga.Options) (dev *netfpga.Device, release func(clean bool), err error)
	// Drive runs the workload against the device and returns the
	// job's value. Required.
	Drive func(*Ctx) (any, error)
}

// Ctx is the per-job execution context handed to Drive: the device, the
// job's deterministic RNG, and the batch's cancellation.
type Ctx struct {
	// Dev is the instantiated device (nil for NoDevice jobs).
	Dev *netfpga.Device
	// Seed is the job's Options.Seed; Rand is a generator seeded with
	// it. All job-local randomness must come from here — never from a
	// source shared between devices.
	Seed uint64
	Rand *sim.Rand

	done <-chan struct{}
}

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
