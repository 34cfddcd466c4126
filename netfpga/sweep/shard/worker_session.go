package shard

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/netfpga/sweep"
)

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

	// Sized so the reader never blocks on a coordinator that assigns the
	// whole plan at once, requeued cells included.
	work := make(chan string, 2*len(plan.Cells)+16)
	var cells atomic.Int64
	busy := make([]time.Duration, req.Workers) // per pool worker
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < req.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				t0 := time.Now()
				runSessionItem(ctx, plan, key, send, &cells)
				busy[w] += time.Since(t0)
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
				work <- key
			}
		case cmd.Close:
			drain()
			u := sweep.Utilization{Workers: req.Workers, Jobs: int(cells.Load()), Wall: time.Since(start), Busy: busy}
			return send(SessionFrame{Done: &SessionDone{Cells: int(cells.Load()), Util: u.Report()}})
		case cmd.Open != nil:
			abort()
			return fail(fmt.Errorf("shard worker: second open on an established session"))
		default:
			abort()
			return fail(fmt.Errorf("shard worker: empty command"))
		}
	}
}

// runSessionItem executes one assigned cell from its first event to its
// last and streams its outcome: a Cell frame, or a Reject frame for a
// cell this worker's plan cannot run. A Cell frame that fails to send is
// reported as an Err frame naming the cell: a record too large to frame
// would otherwise leave the coordinator waiting for it. On a broken
// stream that send fails too, and the reader loop winds the session down.
func runSessionItem(ctx context.Context, plan *sweep.Plan, key string,
	send func(SessionFrame) error, cells *atomic.Int64) {
	// A cancelled session must ship nothing: a cell aborted by ctx
	// carries a context error in its record, which is self-consistent
	// under the digest and would be adopted as a legitimately-failed
	// cell if it ever reached a coordinator.
	if ctx.Err() != nil {
		return
	}
	cr, err := plan.RunCell(ctx, key, 0, 0, "", nil)
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		_ = send(SessionFrame{Reject: &Reject{Key: key, Reason: err.Error()}})
		return
	}
	cells.Add(1)
	rec := cr.Record()
	if err := send(SessionFrame{Cell: &rec}); err != nil {
		_ = send(SessionFrame{Err: fmt.Sprintf("shard worker: cell %s: %v", key, err)})
	}
}
