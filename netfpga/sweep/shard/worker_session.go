package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// errParked is the sentinel a park wrapper's Drive returns after
// abandoning a cell at a segment yield; the session loop turns it into
// a Checkpoint frame. It never leaves the worker.
var errParked = errors.New("shard: cell parked for migration")

// parkPanic unwinds a Drive out of a segment yield: parking must stop
// the device between two events, and the yield callback has no return
// path, so the wrapper panics with the encoded state and converts it
// back to errParked in its own recover — before the fleet runner's
// panic handler ever sees it.
type parkPanic struct{ st netfpga.ParkState }

// parkWrap decorates a job so its device can park mid-run: a segment
// hook installed at the top of Drive watches for a park trigger —
// the forced migrateAfter threshold, or a steal request claimed from
// stealReq — and, when it fires, captures the device's ParkState and
// abandons the run. The capture happens inside a yield, so the state is
// quiescent and the checkpoint digest is exact.
//
// checkEvery sets the yield cadence when no forced threshold is set;
// out receives the captured state when (and only when) the cell parked.
func parkWrap(migrateAfter, checkEvery uint64, stealReq *atomic.Int64, out *netfpga.ParkState) func(fleet.Job) fleet.Job {
	return func(j fleet.Job) fleet.Job {
		orig := j.Drive
		j.Drive = func(c *fleet.Ctx) (val any, err error) {
			defer func() {
				if r := recover(); r != nil {
					pp, ok := r.(parkPanic)
					if !ok {
						panic(r)
					}
					*out, err = pp.st, errParked
				}
			}()
			d := c.Dev
			if d == nil {
				// NoDevice cells (analytic models) have no park
				// state to checkpoint; they run to completion here and
				// are never candidates for parking or stealing.
				return orig(c)
			}
			budget := checkEvery
			if migrateAfter > 0 {
				budget = migrateAfter
			}
			parked := false
			d.SetSegmentHook(budget, func() {
				if parked {
					return
				}
				park := migrateAfter > 0
				if !park && stealReq != nil {
					// Claim one pending steal request, if any.
					for {
						v := stealReq.Load()
						if v <= 0 {
							break
						}
						if stealReq.CompareAndSwap(v, v-1) {
							park = true
							break
						}
					}
				}
				if !park {
					return
				}
				parked = true
				panic(parkPanic{st: d.EncodeState()})
			})
			return orig(c)
		}
		return j
	}
}

// resumeWrap decorates a job to adopt a checkpoint: replay the freshly
// built device to exactly st.Executed events, verify it reproduces the
// checkpoint digest bit-exactly, then run on to completion. Replay is
// the state transfer — the segment-equivalence guarantee makes the
// replayed prefix identical to the donor's execution, and VerifyState
// machine-checks it. A resumed cell installs no park logic, so a
// migrated cell can never ping-pong between workers.
func resumeWrap(st netfpga.ParkState, verifyErr *error) func(fleet.Job) fleet.Job {
	return func(j fleet.Job) fleet.Job {
		orig := j.Drive
		j.Drive = func(c *fleet.Ctx) (val any, err error) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(parkPanic); !ok {
						panic(r)
					}
					err = *verifyErr
				}
			}()
			d := c.Dev
			if d == nil {
				// A checkpoint for a device-less cell is forged or
				// misrouted: parkWrap never produces one.
				*verifyErr = fmt.Errorf("shard: cell has no device; checkpoint cannot be resumed")
				return nil, *verifyErr
			}
			at := d.Sim.Executed()
			if at >= st.Executed {
				*verifyErr = fmt.Errorf("shard: device at %d events before Drive, checkpoint parked at %d", at, st.Executed)
				return nil, *verifyErr
			}
			checked := false
			d.SetSegmentHook(st.Executed-at, func() {
				if checked {
					return
				}
				checked = true
				if err := d.VerifyState(st); err != nil {
					*verifyErr = err
					panic(parkPanic{})
				}
			})
			val, err = orig(c)
			if err == nil && !checked {
				*verifyErr = fmt.Errorf("shard: cell finished at %d events without crossing checkpoint at %d",
					d.Sim.Executed(), st.Executed)
				err = *verifyErr
			}
			return val, err
		}
		return j
	}
}

// sessionItem is one unit of assigned work: a fresh cell, or a
// checkpoint to resume.
type sessionItem struct {
	key          string
	migrateAfter uint64
	resume       *Checkpoint
}

// PlanFunc resolves a request's config/filter/seed into the full sweep
// plan. cmd/nf-bench supplies the resolver that knows about the
// experiment registry; tests supply their own.
type PlanFunc func(req Request) (*sweep.Plan, error)

// ServeSession runs the worker side of the session protocol on an
// established stream: expect Open, answer Hello, then execute assigned
// cells on a local pool of req.Workers goroutines until Close (answer
// Done) or stream end. Malformed sessions and planning failures are
// reported as an Err frame and returned; per-cell failures are ordinary
// records with Err set.
func ServeSession(ctx context.Context, in io.Reader, out io.Writer, planFor PlanFunc) error {
	// A session-scoped context bounds shutdown: when the stream breaks,
	// in-flight cells are cancelled instead of run to completion — their
	// results have nowhere to go, and a fleet that killed this worker
	// must not find its goroutines still alive a full cell later.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wmu sync.Mutex
	send := func(f SessionFrame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return WriteFrame(out, f)
	}
	fail := func(err error) error {
		_ = send(SessionFrame{Err: err.Error()})
		return err
	}

	var cmd Command
	if err := ReadFrame(in, &cmd); err != nil {
		return fmt.Errorf("shard worker: reading open: %w", err)
	}
	if cmd.Open == nil {
		return fail(fmt.Errorf("shard worker: session did not start with an open command"))
	}
	req := *cmd.Open
	if req.Workers < 1 {
		req.Workers = 1
	}
	plan, err := planFor(req)
	if err != nil {
		return fail(fmt.Errorf("shard worker: planning: %w", err))
	}
	if plan.BaseSeed != req.Seed {
		return fail(fmt.Errorf("shard worker: plan seed %d does not match request seed %d",
			plan.BaseSeed, req.Seed))
	}
	if err := send(SessionFrame{Hello: &Hello{Cells: len(plan.Cells), Workers: req.Workers}}); err != nil {
		return fmt.Errorf("shard worker: sending hello: %w", err)
	}

	segEvery := req.SegmentBudget
	if segEvery == 0 {
		segEvery = fleet.DefaultSegmentBudget
	}

	// The work queue holds at most every plan cell plus re-resumed
	// checkpoints; 2x plan size can never block the reader.
	work := make(chan sessionItem, 2*len(plan.Cells)+16)
	var stealReq atomic.Int64
	var cells atomic.Int64
	var busyNS atomic.Int64
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < req.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				t0 := time.Now()
				runSessionItem(ctx, plan, req, it, segEvery, &stealReq, send, &cells)
				busyNS.Add(int64(time.Since(t0)))
			}
		}()
	}
	// drain lets in-flight and queued cells run to completion (the
	// orderly Close path); abort cancels them first (the torn-stream
	// path — nobody is listening for their results).
	drain := func() {
		close(work)
		wg.Wait()
	}
	abort := func() {
		cancel()
		drain()
	}

	for {
		var cmd Command
		if err := ReadFrame(in, &cmd); err != nil {
			abort()
			if err == io.EOF {
				return fmt.Errorf("shard worker: coordinator closed the stream mid-session")
			}
			return fmt.Errorf("shard worker: reading command: %w", err)
		}
		switch {
		case cmd.Assign != nil:
			for _, key := range cmd.Assign.Keys {
				work <- sessionItem{key: key, migrateAfter: cmd.Assign.MigrateAfter}
			}
		case cmd.Resume != nil:
			work <- sessionItem{key: cmd.Resume.Key, resume: cmd.Resume}
		case cmd.Steal:
			stealReq.Add(1)
		case cmd.Close:
			drain()
			wall := time.Since(start)
			util := fleet.UtilizationReport{
				Workers: req.Workers,
				Jobs:    int(cells.Load()),
				WallMS:  float64(wall) / float64(time.Millisecond),
				BusyMS:  float64(busyNS.Load()) / float64(time.Millisecond),
			}
			if wall > 0 && req.Workers > 0 {
				util.Efficiency = util.BusyMS / (util.WallMS * float64(req.Workers))
			}
			return send(SessionFrame{Done: &SessionDone{Cells: int(cells.Load()), Util: util}})
		case cmd.Open != nil:
			abort()
			return fail(fmt.Errorf("shard worker: second open on an established session"))
		default:
			abort()
			return fail(fmt.Errorf("shard worker: empty command"))
		}
	}
}

// runSessionItem executes one assigned item and streams its outcome: a
// Cell frame for a completed cell, a Checkpoint frame for a parked one,
// a Reject frame for a resume that failed verification. Send failures
// are ignored here — the reader loop observes the broken stream and
// winds the session down.
func runSessionItem(ctx context.Context, plan *sweep.Plan, req Request, it sessionItem,
	segEvery uint64, stealReq *atomic.Int64, send func(SessionFrame) error, cells *atomic.Int64) {
	// A cancelled session must ship nothing: a cell aborted by ctx
	// carries a context error in its record, which is self-consistent
	// under the digest and would be adopted as a legitimately-failed
	// cell if it ever reached a coordinator.
	if ctx.Err() != nil {
		return
	}
	if it.resume != nil {
		var verifyErr error
		cr, err := plan.RunCell(ctx, it.key, 0, 0, req.Fidelity, resumeWrap(it.resume.State, &verifyErr))
		switch {
		case ctx.Err() != nil:
		case err != nil:
			_ = send(SessionFrame{Reject: &Reject{Key: it.key, Reason: err.Error()}})
		case verifyErr != nil:
			_ = send(SessionFrame{Reject: &Reject{Key: it.key, Reason: verifyErr.Error()}})
		default:
			cells.Add(1)
			rec := cr.Record()
			_ = send(SessionFrame{Cell: &rec})
		}
		return
	}

	var parked netfpga.ParkState
	cr, err := plan.RunCell(ctx, it.key, 0, 0, req.Fidelity, parkWrap(it.migrateAfter, segEvery, stealReq, &parked))
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		_ = send(SessionFrame{Reject: &Reject{Key: it.key, Reason: err.Error()}})
		return
	}
	if parked.Digest != "" {
		_ = send(SessionFrame{Checkpoint: &Checkpoint{Key: it.key, State: parked}})
		return
	}
	cells.Add(1)
	rec := cr.Record()
	_ = send(SessionFrame{Cell: &rec})
}
