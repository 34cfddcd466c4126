package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/projects"
)

// Ctx is the per-cell execution context a Measure runs in: the device,
// the cell's deterministic RNG, and the batch's cancellation.
type Ctx struct {
	// Dev is the cell's device (nil for NoDevice cells).
	Dev *netfpga.Device
	// Seed is the cell's seed; Rand is a generator seeded with it. All
	// cell-local randomness must come from here — never from a source
	// shared between devices.
	Seed uint64
	Rand *sim.Rand

	done <-chan struct{}
}

// ErrCanceled is returned (wrapped) for cells abandoned after the batch
// context was canceled.
var ErrCanceled = errors.New("sweep: batch canceled")

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

// Runner is the in-process pool a plan executes on: Workers goroutines,
// each running one cell from its first event to its last, claiming
// cells in index order. Only wall clock depends on which worker gets
// which cell: a cell's seed derives from (BaseSeed, key), every
// stochastic element draws from it, and devices share no mutable state.
type Runner struct {
	// Workers is the number of concurrent devices. <= 0 means
	// GOMAXPROCS. The pool never spawns more workers than cells.
	Workers int
	// BaseSeed is the base RunGroups plans its cells' seeds with.
	// Execute never reads it: a plan carries its own BaseSeed.
	BaseSeed uint64

	util *Utilization
}

// Utilization returns the report of the most recently completed batch
// (nil before the first). Valid once an Execute channel closes; a Runner
// must not execute two batches concurrently.
func (r *Runner) Utilization() *Utilization { return r.util }

// Execute runs the plan on the runner and returns a channel
// delivering each cell result as its device finishes (completion
// order), plus the Results that will be fully populated — in expansion
// order — once the channel closes. The caller must drain the channel.
// Cancelling ctx abandons the cells not yet started with ErrCanceled;
// running cells see Ctx.Canceled. The error is always nil.
func (p *Plan) Execute(ctx context.Context, r *Runner) (<-chan CellResult, *Results, error) {
	rs := p.newResults()
	out := make(chan CellResult)
	go func() {
		defer close(out)
		n, nw := len(p.Cells), r.Workers
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		nw = min(nw, n)
		u := &Utilization{Workers: nw, Jobs: n, Busy: make([]time.Duration, nw)}
		took := make([]time.Duration, n)
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range nw {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					t0 := time.Now()
					cr := p.runCell(ctx, i, nil)
					took[i] = time.Since(t0)
					u.Busy[w] += took[i]
					rs.Cells[i] = cr
					out <- cr
				}
			}()
		}
		wg.Wait()
		if n > 0 {
			u.Wall = time.Since(start)
		}
		for i, d := range took {
			if d > u.LongestBusy {
				u.LongestJob, u.LongestBusy = p.Cells[i].Key, d
			}
		}
		r.util = u
		for i := range rs.Cells {
			rs.byKey[rs.Cells[i].Cell.Key] = &rs.Cells[i]
		}
	}()
	return out, rs, nil
}

// RunCell executes a single cell of the plan and returns its sealed
// result; it fails only for a key outside the plan. hook, when non-nil,
// gets a freshly built device before the project's Build — how the
// per-edge reference test reaches the device — and the cell runs on
// that device instead of one from the plan's cache. The cell's fidelity
// is its key's: the spec's fidelities axis. The cell's seed, digest and
// semantics are identical to batch execution (seeds derive from (BaseSeed, key),
// never from batch position), so a cell run alone — on any process, any
// machine — is byte-identical to the same cell inside a full sweep.
// Safe to call concurrently for different keys.
//
// The two ints and the string are ignored. They were the clock-batch and
// frame-burst knobs and the run-level fidelity override;
// benchmark/layers.go still passes them positionally.
func (p *Plan) RunCell(ctx context.Context, key string, _, _ int, _ string, hook func(*netfpga.Device)) (CellResult, error) {
	i, ok := p.byKey[key]
	if !ok {
		return CellResult{}, fmt.Errorf("sweep: cell %q is not in the plan", key)
	}
	return p.runCell(ctx, i, hook), nil
}

// runCell runs cell i and seals its result: the seed derived, the
// measure run on the cell's device with panics recovered, and an
// outcome holding a NaN or infinite value sealed as a cell error naming
// it — no record can carry one, so the wire and the store would
// otherwise lose the cell.
func (p *Plan) runCell(ctx context.Context, i int, hook func(*netfpga.Device)) CellResult {
	cr := CellResult{Cell: p.Cells[i], Index: i, Seed: p.seed(i)}
	o, err := p.measure(ctx, &cr, hook)
	if err == nil {
		if k, ok := nonFinite(o.Values); ok {
			err = fmt.Errorf("sweep: value %q is %v; a cell records finite values only", k, o.Values[k])
		}
	}
	if err != nil {
		cr.Err = err.Error()
	} else {
		cr.Values, cr.Labels = o.Values, o.Labels
	}
	cr.Digest = cr.digest()
	return cr
}

// seed is the seed cell i runs with: the spec's, else derived from
// (BaseSeed, key). A record of the cell carries no other.
func (p *Plan) seed(i int) uint64 {
	if s := p.Cells[i].Seed; s != 0 {
		return s
	}
	return SeedForKey(p.BaseSeed, p.Cells[i].Key)
}

// measure runs cr's cell on its device and records the device's final
// simulated time and event count in cr. A device from the plan's cache
// goes back last, clean only when the cell succeeded and ctx is still
// live.
func (p *Plan) measure(ctx context.Context, cr *CellResult, hook func(*netfpga.Device)) (o Outcome, err error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	cell := cr.Cell
	var release func(clean bool)
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sweep: cell %q panicked: %v", cell.Key, v)
		}
		if release != nil {
			release(err == nil && ctx.Err() == nil)
		}
	}()
	c := &Ctx{Seed: cr.Seed, Rand: sim.NewRand(cr.Seed), done: ctx.Done()}
	if !cell.Spec.NoDevice {
		opts := netfpga.Options{Seed: cr.Seed, PortBER: cell.BER, NoHost: cell.Spec.NoHost, Fidelity: cell.Fidelity}
		if c.Dev, release, err = p.device(cell, opts, hook); err != nil {
			return Outcome{}, fmt.Errorf("sweep: cell %q build: %w", cell.Key, err)
		}
	}
	cell.devs = p.devs
	o, err = p.measures[cr.Index](c, cell)
	if c.Dev != nil {
		cr.SimTime, cr.Events = c.Dev.Now(), c.Dev.Sim.Executed()
	}
	return o, err
}

// device returns the device a cell runs on and the release that hands
// it back to the plan's cache (nil for a device used once). A cell whose
// board and project both come from the registries — no BoardFor, NoBuild
// or hook — takes one from the cache; any other gets a fresh one, hook
// run before the project's Build.
func (p *Plan) device(cell Cell, opts netfpga.Options, hook func(*netfpga.Device)) (*netfpga.Device, func(bool), error) {
	var spec netfpga.BoardSpec
	board := ""
	if cell.Spec.BoardFor != nil {
		b, err := cell.Spec.BoardFor(cell)
		if err != nil {
			return nil, nil, fmt.Errorf("board: %w", err)
		}
		spec = b
	} else {
		board = cmp.Or(cell.Board, "sume")
		b, ok := Board(board)
		if !ok {
			return nil, nil, fmt.Errorf("unknown board %q", board)
		}
		spec = b
	}
	var entry projects.Entry
	if cell.Project != "" && !cell.Spec.NoBuild {
		var ok bool
		if entry, ok = ProjectEntry(cell.Project); !ok {
			return nil, nil, fmt.Errorf("unknown project %q", cell.Project)
		}
		if board != "" && hook == nil {
			return p.devs.acquire(spec, board, entry, opts)
		}
	}
	dev := netfpga.NewDevice(spec, opts)
	if hook != nil {
		hook(dev)
	}
	if entry.New != nil {
		if err := entry.New().Build(dev); err != nil {
			return nil, nil, err
		}
	}
	return dev, nil, nil
}

// nonFinite returns the least key of m whose value is NaN or infinite.
func nonFinite(m map[string]float64) (key string, found bool) {
	for k, v := range m {
		if (math.IsNaN(v) || math.IsInf(v, 0)) && (!found || k < key) {
			key, found = k, true
		}
	}
	return key, found
}
