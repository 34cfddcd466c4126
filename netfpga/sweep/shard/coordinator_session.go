package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/netfpga/sweep"
)

// Fleet runs a plan on worker processes: it opens sessions on a set of
// worker endpoints (spawned subprocesses, TCP dials, or both mixed),
// feeds the plan's cells out as workers drain them, and merges the
// streamed records into one result set with digests byte-identical to a
// single-process run.
//
// The fleet survives its workers:
//
//   - Death/disconnect: a worker whose stream breaks (process killed,
//     connection lost, malformed frames) is discarded and every cell it
//     still owed is requeued onto the survivors. The Merger's
//     missing-cell accounting proves nothing was lost, and its
//     duplicate tolerance absorbs the race where a presumed-dead
//     worker's in-flight result still lands.
//   - Hangs: a worker that owes cells (or has never said Hello) and
//     goes silent past HangTimeout is killed and treated as dead. An
//     idle worker's silence counts from when it is next handed cells.
//   - Flapping: a worker given as a Connector is redialed after death
//     with exponential backoff from 250 ms to 10 s and deterministic
//     jitter; one that dies or fails to dial 5 times within a minute is
//     quarantined for a 15 s cooldown, then re-admitted through a
//     single probe dial whose failure doubles the cooldown (up to 8x).
//
// At the end of a run a worker that does not acknowledge Close within
// 15 s is killed; its cells are already merged.
//
// A run fails only on determinism violations (sweep.ErrDiverged), on a
// cell that exhausts its requeue budget, on a fleet-wide stall past
// StallTimeout (*StallError), or on losing every path to completion —
// fixed endpoints dead, connectors quarantined with no dial in flight
// (*FleetDownError) — never on an individual worker failure. Every cell
// merged before a failure has already reached onCell, which is what a
// resumed run adopts.
type Fleet struct {
	// Req is the run config sent in each Open: config, filter, seed, and
	// local-pool tuning.
	Req Request
	// Endpoints are pre-connected workers. A dead endpoint stays dead —
	// the fleet has no way to re-establish it.
	Endpoints []*Endpoint
	// Connectors are re-establishable workers: dialed at startup and
	// redialed (with backoff) after every death. Endpoints and
	// Connectors can be mixed; together they must be >= 1.
	Connectors []*Connector
	// HangTimeout kills a worker that owes cells but has sent nothing
	// for this long, or nothing since it was handed cells while idle
	// (0 = never). It must comfortably exceed the longest single cell's
	// execution time.
	HangTimeout time.Duration
	// StallTimeout fails the whole run with a *StallError carrying
	// per-worker forensics when no cell has been merged for this long
	// (0 = never). It is the fleet-wide liveness watchdog: HangTimeout
	// catches one silent worker, StallTimeout catches a silently wedged
	// run.
	StallTimeout time.Duration
	// Completed seeds the merger with cells finished by a previous,
	// interrupted run. Each record is seed- and digest-verified through
	// Adopt before it counts; records that fail verification are dropped back
	// into the pending set and re-run (a record that diverges from an
	// already-adopted one still fails the run). Adopted cells are not
	// replayed to onCell — the caller already owns their persistence.
	Completed []sweep.CellRecord
	// OnEvent, when non-nil, observes fleet lifecycle events (deaths,
	// requeues, reconnects, quarantines) from the
	// coordinator goroutine.
	OnEvent func(FleetEvent)

	// Reports holds each worker's session utilization after Run returns,
	// in Done arrival order (workers that died without a Done frame are
	// absent) — the run's record of where its cells went and how busy
	// each pool was.
	Reports []WorkerReport
}

// closeGrace bounds the Close/Done handshake at the end of a run: a
// worker that cannot acknowledge within it is killed (its cells are
// already merged, so nothing is lost).
const closeGrace = 15 * time.Second

// redialDelay is the wait before a connector's attempt-th redial
// (attempt >= 1): exponential from 250 ms to 10 s, plus a deterministic
// jitter in [0, delay/2] derived from (worker name, attempt) — so
// concurrent redials spread out, yet a replayed run redials on exactly
// the same schedule.
func redialDelay(name string, attempt int) time.Duration {
	const base, ceil = 250 * time.Millisecond, 10 * time.Second
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	d = min(d, ceil)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", name, attempt)
	r := splitmix64(h.Sum64())
	return d + time.Duration(r%uint64(d/2+1))
}

// golden is splitmix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is the one-step mixer behind the jitter and the chaos
// streams: full-avalanche, so adjacent inputs give unrelated outputs.
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WorkerReport is one endpoint's session outcome: how many cells it
// completed and its own pool utilization. The CLI persists these in
// the run's meta.
type WorkerReport struct {
	Name  string                  `json:"name"`
	Cells int                     `json:"cells"`
	Util  sweep.UtilizationReport `json:"util"`
}

// FleetEvent is one coordinator observation: what happened, on which
// worker, and how many cells it moved.
type FleetEvent struct {
	Worker string
	Kind   string // hello, death, hang, reject, duplicate, done, adopt, reconnect, redial-failed, quarantine, probe
	Detail string
	Cells  int
}

// WorkerForensics is one worker's state snapshot inside a StallError
// or FleetDownError: enough to tell a hung worker from a quarantined
// one from a dial loop without re-running under a debugger.
type WorkerForensics struct {
	Name        string
	Alive       bool
	Helloed     bool
	Dialing     bool
	Quarantined bool
	Outstanding int
	Cells       int
	Deaths      int
	Attempts    int
	SinceFrame  time.Duration
	LastError   string
}

func (wf WorkerForensics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[", wf.Name)
	switch {
	case wf.Alive:
		fmt.Fprintf(&b, "alive, %d outstanding, silent %v", wf.Outstanding, wf.SinceFrame.Round(time.Millisecond))
		if !wf.Helloed {
			b.WriteString(", no hello")
		}
	case wf.Dialing:
		fmt.Fprintf(&b, "dialing, attempt %d", wf.Attempts)
	case wf.Quarantined:
		fmt.Fprintf(&b, "quarantined after %d deaths", wf.Deaths)
	default:
		fmt.Fprintf(&b, "dead after %d deaths", wf.Deaths)
	}
	fmt.Fprintf(&b, ", %d cells done", wf.Cells)
	if wf.LastError != "" {
		fmt.Fprintf(&b, ", last: %s", wf.LastError)
	}
	b.WriteString("]")
	return b.String()
}

// StallError reports a fleet-wide liveness failure: no cell merged for
// Stalled despite the run being incomplete. Workers carries the
// per-worker forensics at the moment the watchdog fired.
type StallError struct {
	Stalled time.Duration
	Merged  int
	Total   int
	Pending int
	Workers []WorkerForensics
}

func (e *StallError) Error() string {
	return fmt.Sprintf("shard: fleet stalled: no cell merged for %v with %d of %d cells done (%d queued)",
		e.Stalled.Round(time.Second), e.Merged, e.Total, e.Pending) + listForensics(e.Workers)
}

// FleetDownError reports the loss of every path to completion: all
// fixed endpoints dead and every connector quarantined with no dial in
// flight. The cells merged before it are not lost: a CLI run has them in
// its partial run, and -resume finishes the rest.
type FleetDownError struct {
	Merged  int
	Total   int
	Workers []WorkerForensics
}

func (e *FleetDownError) Error() string {
	return fmt.Sprintf("shard: all %d workers dead or quarantined with %d of %d cells unfinished",
		len(e.Workers), e.Total-e.Merged, e.Total) + listForensics(e.Workers)
}

// listForensics renders one indented line per worker.
func listForensics(ws []WorkerForensics) string {
	var b strings.Builder
	for _, wf := range ws {
		b.WriteString("\n  ")
		b.WriteString(wf.String())
	}
	return b.String()
}

// fleetEvent is one read from worker w's incarnation gen: a frame, or
// the error that ended the stream.
type fleetEvent struct {
	w     int
	gen   int
	frame *SessionFrame
	err   error
}

type dialResult struct {
	w   int
	ep  *Endpoint
	err error
}

// Run executes the plan across the fleet. onCell, when non-nil,
// observes every first-adopted cell in completion order from the
// coordinator goroutine (pre-Completed cells excepted). The merged
// Results is in expansion order with every digest recomputed and
// verified on arrival; the report aggregates every worker's session
// utilization.
//
// Run is the I/O shell around the coordinator, which makes every
// decision: it owns the transports, one reader and one writer goroutine
// per incarnation, the dials, one ticker and teardown, and executes the
// actions each input leaves in the coordinator's outbox.
func (f *Fleet) Run(ctx context.Context, plan *sweep.Plan, onCell func(sweep.CellResult)) (*sweep.Results, sweep.UtilizationReport, error) {
	if len(f.Endpoints)+len(f.Connectors) == 0 {
		return nil, sweep.UtilizationReport{}, fmt.Errorf("shard: fleet has no endpoints")
	}
	c, err := newCoordinator(f, plan, onCell, time.Now())
	if err != nil {
		return nil, sweep.UtilizationReport{}, err
	}
	defer func() { f.Reports = c.reports }()

	// One slot per worker: its current transport and send queue, touched
	// only by this goroutine. The queue is sized so the coordinator never
	// blocks on a slow writer: a worker is never owed more than the plan,
	// requeues included.
	type slot struct {
		ep   *Endpoint
		send chan Command
	}
	slots := make([]slot, len(c.workers))
	for i, ep := range f.Endpoints {
		slots[i].ep = ep
	}
	events := make(chan fleetEvent)
	dials := make(chan dialResult)
	finished := make(chan struct{})
	defer func() {
		close(finished)
		for _, s := range slots {
			if s.ep != nil && s.ep.Kill != nil {
				_ = s.ep.Kill()
			}
			if s.send != nil {
				close(s.send)
			}
			if s.ep != nil && s.ep.Wait != nil {
				_ = s.ep.Wait()
			}
		}
	}()
	do := func() {
		for _, a := range c.out {
			s := &slots[a.w]
			switch a.kind {
			case actAttach:
				// The goroutines take the endpoint by value: the shell
				// forgets it on death while they may still touch it.
				s.send = make(chan Command, 4*len(plan.Cells)+16)
				go func(ep *Endpoint, send chan Command) { // writer
					for cmd := range send {
						if err := WriteFrame(ep.In, cmd); err != nil {
							// The reader observes the broken transport; just
							// drain so the coordinator never blocks.
							for range send {
							}
							return
						}
					}
				}(s.ep, s.send)
				go func(i, gen int, ep *Endpoint) { // reader, generation-fenced
					for {
						ev := fleetEvent{w: i, gen: gen}
						var fr SessionFrame
						if ev.err = ReadFrame(ep.Out, &fr); ev.err == nil {
							ev.frame = &fr
						}
						select {
						case events <- ev:
						case <-finished:
							return
						}
						if ev.err != nil {
							return
						}
					}
				}(a.w, a.gen, s.ep)
			case actSend:
				s.send <- a.cmd
			case actKill:
				if s.ep != nil && s.ep.Kill != nil {
					_ = s.ep.Kill()
				}
				if s.ep != nil && s.ep.Wait != nil {
					// Reap off the coordinator goroutine: Kill makes Wait
					// prompt, but a subprocess reap must not stall feeding.
					go func(wait func() error) { _ = wait() }(s.ep.Wait)
				}
				if s.send != nil {
					close(s.send)
				}
				*s = slot{}
			case actDial:
				go func(i int, conn *Connector) {
					ep, err := conn.Dial()
					select {
					case dials <- dialResult{w: i, ep: ep, err: err}:
					case <-finished:
						if ep != nil && ep.Kill != nil {
							_ = ep.Kill()
						}
					}
				}(a.w, f.Connectors[a.w-len(f.Endpoints)])
			}
		}
		c.out = c.out[:0]
	}

	ticker := time.NewTicker(f.tickPeriod())
	defer ticker.Stop()
	for do(); !c.finished(); do() {
		select {
		case <-ctx.Done():
			return nil, c.util, ctx.Err()
		case <-ticker.C:
			err = c.tick(time.Now())
		case dr := <-dials:
			slots[dr.w].ep = dr.ep
			err = c.dialed(time.Now(), dr.w, dr.err)
		case ev := <-events:
			err = c.recv(time.Now(), ev.w, ev.gen, ev.frame, ev.err)
		}
		if err != nil {
			return nil, c.util, err
		}
	}
	rs, err := c.m.Results()
	return rs, c.util, err
}

// tickPeriod is how often the coordinator's watchdogs and redials run:
// 250 ms, or a quarter of the hang timeout when shorter, never under
// 10 ms.
func (f *Fleet) tickPeriod() time.Duration {
	tick := 250 * time.Millisecond
	if f.HangTimeout > 0 && f.HangTimeout/4 < tick {
		tick = f.HangTimeout / 4
	}
	return max(tick, 10*time.Millisecond)
}
