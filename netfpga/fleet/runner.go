package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/netfpga"
)

// Runner executes batches of jobs across a worker pool.
type Runner struct {
	// Workers is the number of concurrent devices. <= 0 means
	// GOMAXPROCS. The pool never spawns more workers than jobs.
	Workers int
	// BaseSeed is the base a sweep plans its cells' seeds with
	// (sweep.RunStreamGroups passes it to PlanGroups, which derives
	// each cell's Options.Seed from it and the cell key). The runner
	// itself never reads it: a job's seed is its Options.Seed.
	BaseSeed uint64
	// Fidelity, when non-empty, overrides every device's execution
	// fidelity ("full"/"hybrid"; jobs that set their own
	// Options.Fidelity win). This CHANGES results: hybrid devices
	// route background traffic through the analytic model and are
	// golden-digested separately.
	Fidelity string

	// util is the last batch's utilization report (see Utilization).
	util atomic.Pointer[Utilization]
}

// New returns a runner with the given worker count (<= 0 means
// GOMAXPROCS).
func New(workers int) *Runner { return &Runner{Workers: workers} }

// Sequential returns a single-worker runner: jobs execute one at a
// time, exactly like the pre-fleet sequential loops.
func Sequential() *Runner { return &Runner{Workers: 1} }

func (r *Runner) workers(jobs int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Utilization returns the report of the most recently completed batch
// (nil before the first). Valid once RunAll returns or a RunStream
// channel closes; a Runner must not execute two batches concurrently.
func (r *Runner) Utilization() *Utilization { return r.util.Load() }

// RunAll executes every job and returns the results in job order. All
// jobs run to completion (or to their own failure) regardless of other
// jobs' errors; cancelling ctx abandons not-yet-started jobs with
// ErrCanceled but lets in-flight devices finish their Drive (which
// should poll Ctx.Canceled in long loops).
func (r *Runner) RunAll(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	r.dispatch(ctx, jobs, func(res Result) { results[res.Index] = res })
	return results
}

// RunStream executes the batch like RunAll but delivers each Result as
// its device finishes, in completion order. The channel is closed when
// the batch is done. The caller must drain it.
func (r *Runner) RunStream(ctx context.Context, jobs []Job) <-chan Result {
	out := make(chan Result)
	go func() {
		defer close(out)
		r.dispatch(ctx, jobs, func(res Result) { out <- res })
	}()
	return out
}

// dispatch executes the batch on the pool, calling deliver once per
// finished job (from worker goroutines, in completion order), and
// records the batch's Utilization. It returns when every job has been
// delivered. Workers claim jobs in index order; only wall clock depends
// on which worker gets which job.
func (r *Runner) dispatch(ctx context.Context, jobs []Job, deliver func(Result)) {
	if len(jobs) == 0 {
		r.util.Store(&Utilization{})
		return
	}
	nw := r.workers(len(jobs))
	u := newUtilization(nw, len(jobs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				res := r.runJob(ctx, jobs[i], i)
				u.jobDone(w, jobs[i].Name, time.Since(t0))
				deliver(res)
			}
		}()
	}
	wg.Wait()
	u.Wall = time.Since(start)
	r.util.Store(u)
}

// runJob executes a single job, isolating panics so one bad device
// cannot take down the pool. An acquired device is released last, clean
// only when the job succeeded and the batch was not canceled.
func (r *Runner) runJob(ctx context.Context, job Job, index int) (res Result) {
	seed := job.Options.Seed
	res = Result{Index: index, Name: job.Name, Seed: seed}
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("%w: %w", ErrCanceled, err)
		return res
	}
	var release func(clean bool)
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("fleet: job %q panicked: %v", job.Name, p)
		}
		if release != nil {
			release(res.Err == nil && ctx.Err() == nil)
		}
	}()
	if job.Drive == nil {
		res.Err = fmt.Errorf("fleet: job %q has no Drive function", job.Name)
		return res
	}
	c := &Ctx{Seed: seed, Rand: sim.NewRand(seed), done: ctx.Done()}
	if !job.NoDevice {
		opts := job.Options
		if opts.Fidelity == "" {
			opts.Fidelity = r.Fidelity
		}
		dev, rel, err := jobDevice(job, opts)
		if err != nil {
			res.Err = fmt.Errorf("fleet: job %q build: %w", job.Name, err)
			return res
		}
		c.Dev, release = dev, rel
	}
	v, err := job.Drive(c)
	res.Value = v
	res.Err = err
	if c.Dev != nil {
		res.SimTime = c.Dev.Now()
		res.Events = c.Dev.Sim.Executed()
	}
	return res
}

// jobDevice returns the job's device: acquired, with its release, or a
// fresh NewDevice plus Build.
func jobDevice(job Job, opts netfpga.Options) (*netfpga.Device, func(bool), error) {
	if job.Acquire != nil {
		return job.Acquire(opts)
	}
	dev := netfpga.NewDevice(job.Board, opts)
	if job.Build != nil {
		if err := job.Build(dev); err != nil {
			return nil, nil, err
		}
	}
	return dev, nil, nil
}
