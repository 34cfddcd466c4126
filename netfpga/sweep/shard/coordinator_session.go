package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"time"

	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// Fleet is the coordinator: it opens sessions on a set of worker
// endpoints (spawned subprocesses, TCP dials, or both mixed), feeds the
// plan's cells out as workers drain them, and merges the
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
//     goes silent past HangTimeout is killed and treated as dead.
//   - Flapping: a worker given as a Connector is redialed after death
//     with exponential backoff and deterministic jitter; one that fails
//     Breaker.Failures times inside Breaker.Window is quarantined for a
//     cooldown, then re-admitted through a single probe dial whose
//     failure doubles the cooldown.
//   - Degradation: when every remote path is gone — fixed endpoints
//     dead, connectors quarantined with no dial in flight — and
//     Fallback is set, the remaining cells run in-process on Req's
//     runner through the same digest-verified Adopt path.
//
// A run fails only on determinism violations (sweep.ErrDiverged), on a
// cell that exhausts its requeue budget, on a fleet-wide stall past
// StallTimeout (*StallError), or on losing every path to completion
// with Fallback disabled (*FleetDownError) — never on an individual
// worker failure.
type Fleet struct {
	// Req is the run config sent in each Open: config, filter, seed, and
	// local-pool tuning. It also builds the fallback runner.
	Req Request
	// Endpoints are pre-connected workers. A dead endpoint stays dead —
	// the fleet has no way to re-establish it.
	Endpoints []*Endpoint
	// Connectors are re-establishable workers: dialed at startup and
	// redialed (with backoff) after every death. Endpoints and
	// Connectors can be mixed; together they must be >= 1.
	Connectors []*Connector
	// HangTimeout kills a worker that owes cells but has sent nothing
	// for this long (0 = never). It must comfortably exceed the
	// longest single cell's execution time.
	HangTimeout time.Duration
	// StallTimeout fails the whole run with a *StallError carrying
	// per-worker forensics when no cell has been merged for this long
	// (0 = never). It is the fleet-wide liveness watchdog: HangTimeout
	// catches one silent worker, StallTimeout catches a silently wedged
	// run.
	StallTimeout time.Duration
	// CloseGrace bounds the Close/Done handshake at the end of a run
	// (0 = 15s); a worker that cannot acknowledge within it is killed
	// (its cells are already merged, so nothing is lost).
	CloseGrace time.Duration
	// Backoff shapes the reconnect schedule for Connectors.
	Backoff Backoff
	// Breaker shapes the per-worker circuit breaker for Connectors.
	Breaker Breaker
	// Fallback enables graceful degradation: when no remote path to
	// completion remains, the coordinator runs every unfinished cell
	// in-process on Req.Runner() instead of failing the run.
	Fallback bool
	// Completed seeds the merger with cells finished by a previous,
	// interrupted run. Each record is digest-verified through Adopt
	// before it counts; records that fail verification are dropped back
	// into the pending set and re-run (a record that diverges from an
	// already-adopted one still fails the run). Adopted cells are not
	// replayed to onCell — the caller already owns their persistence.
	Completed []sweep.CellRecord
	// OnEvent, when non-nil, observes fleet lifecycle events (deaths,
	// requeues, reconnects, quarantines) from the
	// coordinator goroutine.
	OnEvent func(FleetEvent)

	// Reports holds each worker's session utilization after Run returns
	// (workers that died without a Done frame are absent) — the run's
	// record of where its cells went and how busy each pool was.
	Reports []WorkerReport
}

// Backoff is the reconnect schedule for fleet connectors: exponential
// from Base to Max, plus a deterministic jitter in [0, delay/2] derived
// from (Seed, worker name, attempt) — so concurrent redials spread out,
// yet a replayed run redials on exactly the same schedule.
type Backoff struct {
	Base time.Duration // first retry delay (0 = 250ms)
	Max  time.Duration // delay cap (0 = 10s)
	Seed uint64        // jitter derivation seed
}

// Delay returns the wait before the attempt-th redial (attempt >= 1).
func (b Backoff) Delay(name string, attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 10 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", name, attempt)
	r := splitmix64(h.Sum64() ^ b.Seed)
	return d + time.Duration(r%uint64(d/2+1))
}

// splitmix64 is the one-step mixer the jitter and chaos schedules
// share: full-avalanche, so adjacent inputs give unrelated outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Breaker is the per-worker circuit breaker: a connector that fails
// Failures times within Window is quarantined — no redials — for a
// cooldown starting at Cooldown. After it expires, a single probe dial
// re-admits the worker on a successful Hello; a failed probe doubles
// the cooldown (capped at 8x) and re-quarantines.
type Breaker struct {
	Failures int           // trip threshold (0 = 5)
	Window   time.Duration // failure-counting window (0 = 1 minute)
	Cooldown time.Duration // first quarantine length (0 = 15s)
}

func (b Breaker) failures() int {
	if b.Failures == 0 {
		return 5
	}
	return b.Failures
}

func (b Breaker) window() time.Duration {
	if b.Window <= 0 {
		return time.Minute
	}
	return b.Window
}

func (b Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 15 * time.Second
	}
	return b.Cooldown
}

// WorkerReport is one endpoint's session outcome: how many cells it
// completed and its own pool utilization. The CLI persists these in
// the run's meta.
type WorkerReport struct {
	Name  string                  `json:"name"`
	Cells int                     `json:"cells"`
	Util  fleet.UtilizationReport `json:"util"`
}

// FleetEvent is one coordinator observation: what happened, on which
// worker, and how many cells it moved.
type FleetEvent struct {
	Worker string
	Kind   string // hello, death, hang, reject, duplicate, done, adopt, reconnect, redial-failed, quarantine, probe, fallback
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
	var b strings.Builder
	fmt.Fprintf(&b, "shard: fleet stalled: no cell merged for %v with %d of %d cells done (%d queued)",
		e.Stalled.Round(time.Second), e.Merged, e.Total, e.Pending)
	for _, wf := range e.Workers {
		b.WriteString("\n  ")
		b.WriteString(wf.String())
	}
	return b.String()
}

// FleetDownError reports the loss of every path to completion: all
// fixed endpoints dead and every connector quarantined or exhausted,
// with Fallback disabled.
type FleetDownError struct {
	Merged  int
	Total   int
	Workers []WorkerForensics
}

func (e *FleetDownError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: all %d workers dead or quarantined with %d of %d cells unfinished",
		len(e.Workers), e.Total-e.Merged, e.Total)
	for _, wf := range e.Workers {
		b.WriteString("\n  ")
		b.WriteString(wf.String())
	}
	return b.String()
}

// fleetWorker is the coordinator's per-slot state: one fixed endpoint
// or one connector, across every incarnation of its transport.
type fleetWorker struct {
	name        string
	conn        *Connector // nil = fixed endpoint, never redialed
	ep          *Endpoint  // current transport (nil while disconnected)
	gen         int        // incarnation counter; stale readers are fenced by it
	send        chan Command
	outstanding map[string]bool
	lastFrame   time.Time
	alive       bool
	helloed     bool
	closed      bool
	done        bool
	recvCells   int
	limit       int // outstanding top-up target, set at Hello

	// reconnect state
	dialing  bool
	attempt  int
	nextDial time.Time
	deaths   int
	lastWhy  string

	// breaker state
	fails     []time.Time
	quarUntil time.Time
	probing   bool
	cooldown  time.Duration
}

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
func (f *Fleet) Run(ctx context.Context, plan *sweep.Plan, onCell func(sweep.CellResult)) (*sweep.Results, fleet.UtilizationReport, error) {
	var util fleet.UtilizationReport
	nworkers := len(f.Endpoints) + len(f.Connectors)
	if nworkers == 0 {
		return nil, util, fmt.Errorf("shard: fleet has no endpoints")
	}
	emit := func(ev FleetEvent) {
		if f.OnEvent != nil {
			f.OnEvent(ev)
		}
	}

	m := plan.Merger()
	total := len(plan.Cells)

	// Adopt the previous run's verified cells before anything connects:
	// a record that survives Adopt is as good as a fresh execution, one
	// that does not goes back into the pending set.
	adopted, readopt := 0, 0
	for _, rec := range f.Completed {
		_, dup, err := m.Adopt(rec)
		if err != nil {
			if errors.Is(err, sweep.ErrDiverged) {
				return nil, util, err
			}
			readopt++
			emit(FleetEvent{Kind: "adopt", Detail: rec.Key + " rejected: " + err.Error()})
			continue
		}
		if !dup {
			adopted++
		}
	}
	if adopted > 0 || readopt > 0 {
		emit(FleetEvent{Kind: "adopt", Detail: fmt.Sprintf("%d cells adopted from previous run, %d re-run", adopted, readopt), Cells: adopted})
	}

	// pending holds the key of every cell not yet assigned to a live
	// worker: initially the unfinished plan, later requeues.
	pending := make([]string, 0, total)
	for _, key := range plan.Keys() {
		if !m.Filled(key) {
			pending = append(pending, key)
		}
	}
	requeues := make(map[string]int)
	maxRequeue := 2 * nworkers
	if maxRequeue < 4 {
		maxRequeue = 4
	}

	events := make(chan fleetEvent)
	dials := make(chan dialResult)
	finished := make(chan struct{})
	workers := make([]*fleetWorker, 0, nworkers)
	now := time.Now()
	newWorker := func(name string, conn *Connector) *fleetWorker {
		return &fleetWorker{
			name:        name,
			conn:        conn,
			outstanding: map[string]bool{},
			lastFrame:   now,
			cooldown:    f.Breaker.cooldown(),
		}
	}
	for _, ep := range f.Endpoints {
		w := newWorker(ep.Name, nil)
		w.ep = ep // attached below
		workers = append(workers, w)
	}
	for _, c := range f.Connectors {
		workers = append(workers, newWorker(c.Name, c))
	}

	// attach wires a transport incarnation into slot i: fresh send
	// queue, writer and generation-fenced reader goroutines, and the
	// session Open. The endpoint is captured by value in the goroutines
	// — the coordinator nils w.ep on death while they may still touch
	// the old transport.
	attach := func(i int, ep *Endpoint) {
		w := workers[i]
		w.ep = ep
		w.gen++
		w.send = make(chan Command, 4*total+16)
		w.lastFrame = time.Now()
		w.alive, w.helloed, w.closed, w.done = true, false, false, false
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
		}(ep, w.send)
		go func(i, gen int, ep *Endpoint) { // reader
			for {
				var fr SessionFrame
				ev := fleetEvent{w: i, gen: gen}
				if err := ReadFrame(ep.Out, &fr); err != nil {
					ev.err = err
				} else {
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
		}(i, w.gen, ep)
		req := f.Req
		w.send <- Command{Open: &req}
	}
	for i, w := range workers {
		if w.conn == nil {
			ep := w.ep
			w.ep = nil
			attach(i, ep)
		}
	}
	startDial := func(i int) {
		w := workers[i]
		w.dialing = true
		go func(i int, c *Connector) {
			ep, err := c.Dial()
			select {
			case dials <- dialResult{w: i, ep: ep, err: err}:
			case <-finished:
				if ep != nil && ep.Kill != nil {
					_ = ep.Kill()
				}
			}
		}(i, w.conn)
	}
	for i, w := range workers {
		if w.conn != nil {
			startDial(i)
		}
	}
	f.Reports = f.Reports[:0]
	defer func() {
		close(finished)
		for _, w := range workers {
			if w.ep != nil && w.ep.Kill != nil {
				_ = w.ep.Kill()
			}
		}
		for _, w := range workers {
			if w.send != nil {
				close(w.send)
			}
			if w.ep != nil && w.ep.Wait != nil {
				_ = w.ep.Wait()
			}
		}
	}()

	forensics := func() []WorkerForensics {
		now := time.Now()
		out := make([]WorkerForensics, len(workers))
		for i, w := range workers {
			out[i] = WorkerForensics{
				Name:        w.name,
				Alive:       w.alive,
				Helloed:     w.helloed,
				Dialing:     w.dialing,
				Quarantined: now.Before(w.quarUntil),
				Outstanding: len(w.outstanding),
				Cells:       w.recvCells,
				Deaths:      w.deaths,
				Attempts:    w.attempt,
				SinceFrame:  now.Sub(w.lastFrame),
				LastError:   w.lastWhy,
			}
		}
		return out
	}

	// feed tops worker i up to its outstanding limit with one Assign.
	feed := func(i int) {
		w := workers[i]
		if !w.alive || !w.helloed || w.closed {
			return
		}
		n := w.limit - len(w.outstanding)
		if n > len(pending) {
			n = len(pending)
		}
		if n <= 0 {
			return
		}
		// Copied: the writer goroutine encodes keys while pending moves on.
		keys := append([]string(nil), pending[:n]...)
		pending = pending[n:]
		for _, key := range keys {
			w.outstanding[key] = true
		}
		w.send <- Command{Assign: &Assign{Keys: keys}}
	}
	feedAll := func() {
		for i := range workers {
			feed(i)
		}
	}

	requeue := func(key, why string) error {
		if m.Filled(key) {
			return nil
		}
		requeues[key]++
		if requeues[key] > maxRequeue {
			return fmt.Errorf("shard: cell %s failed %d workers (last: %s)", key, requeues[key], why)
		}
		pending = append(pending, key)
		return nil
	}

	// recordFailure feeds the circuit breaker: prune the window, trip
	// into quarantine at the threshold, and treat any failure during a
	// probe as the probe's verdict — re-quarantine with the cooldown
	// doubled.
	recordFailure := func(i int, now time.Time) {
		w := workers[i]
		if w.conn == nil {
			return
		}
		if w.probing {
			w.probing = false
			w.cooldown *= 2
			if max := 8 * f.Breaker.cooldown(); w.cooldown > max {
				w.cooldown = max
			}
			w.quarUntil = now.Add(w.cooldown)
			w.fails = nil
			emit(FleetEvent{Worker: w.name, Kind: "quarantine", Detail: fmt.Sprintf("probe failed; quarantined for %v", w.cooldown)})
			return
		}
		w.fails = append(w.fails, now)
		cut := now.Add(-f.Breaker.window())
		for len(w.fails) > 0 && w.fails[0].Before(cut) {
			w.fails = w.fails[1:]
		}
		if len(w.fails) >= f.Breaker.failures() {
			w.quarUntil = now.Add(w.cooldown)
			w.fails = nil
			emit(FleetEvent{Worker: w.name, Kind: "quarantine",
				Detail: fmt.Sprintf("%d failures within %v; quarantined for %v", f.Breaker.failures(), f.Breaker.window(), w.cooldown)})
		}
	}

	markDead := func(i int, kind, why string) error {
		w := workers[i]
		if !w.alive {
			return nil
		}
		w.alive = false
		w.deaths++
		w.lastWhy = why
		if w.ep != nil {
			if w.ep.Kill != nil {
				_ = w.ep.Kill()
			}
			if w.ep.Wait != nil {
				// Reap off the coordinator goroutine: Kill makes Wait
				// prompt, but a subprocess reap must not stall feeding.
				go func(wait func() error) { _ = wait() }(w.ep.Wait)
			}
			w.ep = nil
		}
		if w.send != nil {
			close(w.send)
			w.send = nil
		}
		n := 0
		var err error
		for key := range w.outstanding {
			if e := requeue(key, why); e != nil && err == nil {
				err = e
			}
			n++
		}
		w.outstanding = map[string]bool{}
		emit(FleetEvent{Worker: w.name, Kind: kind, Detail: why, Cells: n})
		now := time.Now()
		recordFailure(i, now)
		if w.conn != nil && !now.Before(w.quarUntil) {
			w.attempt++
			w.nextDial = now.Add(f.Backoff.Delay(w.name, w.attempt))
		}
		if err != nil {
			return err
		}
		feedAll()
		return nil
	}

	tick := 250 * time.Millisecond
	if f.HangTimeout > 0 && f.HangTimeout/4 < tick {
		tick = f.HangTimeout / 4
	}
	if f.Backoff.Base > 0 && f.Backoff.Base/2 < tick {
		tick = f.Backoff.Base / 2
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	closeGrace := f.CloseGrace
	if closeGrace <= 0 {
		closeGrace = 15 * time.Second
	}

	var closeAt time.Time
	closing := false
	startClose := func() {
		closing = true
		closeAt = time.Now()
		for _, w := range workers {
			if w.alive && !w.closed {
				w.closed = true
				w.send <- Command{Close: true}
			}
		}
	}
	closeDone := func() bool {
		for _, w := range workers {
			if w.alive && !w.done {
				return false
			}
		}
		return true
	}

	lastProgress := time.Now()

	// runFallback executes every unfinished cell in-process on Req's
	// runner — the degradation path when no remote worker can. Results
	// flow through the same digest-verifying Adopt as remote records, so
	// fallback cells are byte-identical to what the fleet would have
	// produced.
	runFallback := func() error {
		sub := plan.Subset(func(key string) bool { return !m.Filled(key) })
		pending = pending[:0]
		emit(FleetEvent{Worker: "fallback", Kind: "fallback",
			Detail: fmt.Sprintf("no remote path left; running %d cells in-process", len(sub.Cells)), Cells: len(sub.Cells)})
		r := f.Req.Runner()
		ch, _, err := sub.Execute(ctx, r)
		if err != nil {
			return err
		}
		cells := 0
		var failErr error
		for res := range ch {
			if ctx.Err() != nil {
				// A cell aborted by ctx carries a context error in a
				// self-consistent record; it must never be adopted as a
				// legitimately failed cell.
				failErr = ctx.Err()
				continue
			}
			cr, dup, err := m.Adopt(res.Record())
			if err != nil {
				if failErr == nil {
					failErr = err
				}
				continue
			}
			if dup {
				continue
			}
			cells++
			lastProgress = time.Now()
			if onCell != nil {
				onCell(cr)
			}
		}
		rep := r.Utilization().Report()
		util.Merge(rep)
		f.Reports = append(f.Reports, WorkerReport{Name: "fallback", Cells: cells, Util: rep})
		return failErr
	}

	// pathRemains reports whether any worker can still make progress:
	// alive, mid-dial, or a connector that is neither quarantined nor
	// out of its backoff schedule.
	pathRemains := func(now time.Time) bool {
		for _, w := range workers {
			if w.alive || w.dialing {
				return true
			}
			if w.conn != nil && !now.Before(w.quarUntil) {
				return true
			}
		}
		return false
	}

	for {
		if !closing && m.Placed() == total {
			startClose()
		}
		if closing && closeDone() {
			break
		}
		if !closing && !pathRemains(time.Now()) {
			if !f.Fallback {
				return nil, util, &FleetDownError{Merged: m.Placed(), Total: total, Workers: forensics()}
			}
			if err := runFallback(); err != nil {
				return nil, util, err
			}
			continue
		}

		select {
		case <-ctx.Done():
			return nil, util, ctx.Err()
		case <-ticker.C:
			now := time.Now()
			if closing {
				if now.Sub(closeAt) > closeGrace {
					for i, w := range workers {
						if w.alive && !w.done {
							if err := markDead(i, "death", "no done frame within close grace"); err != nil {
								return nil, util, err
							}
						}
					}
				}
				continue
			}
			if f.StallTimeout > 0 && now.Sub(lastProgress) > f.StallTimeout {
				return nil, util, &StallError{
					Stalled: now.Sub(lastProgress),
					Merged:  m.Placed(),
					Total:   total,
					Pending: len(pending),
					Workers: forensics(),
				}
			}
			if f.HangTimeout > 0 {
				for i, w := range workers {
					owes := len(w.outstanding) > 0 || !w.helloed
					if w.alive && owes && now.Sub(w.lastFrame) > f.HangTimeout {
						if err := markDead(i, "hang", fmt.Sprintf("silent for over %v with %d cells outstanding",
							f.HangTimeout, len(w.outstanding))); err != nil {
							return nil, util, err
						}
					}
				}
			}
			for i, w := range workers {
				if w.alive || w.dialing || w.conn == nil {
					continue
				}
				if !w.quarUntil.IsZero() {
					if now.Before(w.quarUntil) {
						continue
					}
					// Quarantine expired: the next dial is the probe.
					w.quarUntil = time.Time{}
					w.probing = true
					w.nextDial = now
					emit(FleetEvent{Worker: w.name, Kind: "probe", Detail: "quarantine expired; probing"})
				}
				if now.Before(w.nextDial) {
					continue
				}
				startDial(i)
			}
		case dr := <-dials:
			w := workers[dr.w]
			w.dialing = false
			if closing {
				if dr.ep != nil && dr.ep.Kill != nil {
					_ = dr.ep.Kill()
				}
				continue
			}
			if dr.err != nil {
				now := time.Now()
				w.lastWhy = "dial: " + dr.err.Error()
				emit(FleetEvent{Worker: w.name, Kind: "redial-failed", Detail: dr.err.Error(), Cells: 0})
				recordFailure(dr.w, now)
				if !now.Before(w.quarUntil) {
					w.attempt++
					w.nextDial = now.Add(f.Backoff.Delay(w.name, w.attempt))
				}
				continue
			}
			attach(dr.w, dr.ep)
			if w.gen > 1 {
				emit(FleetEvent{Worker: w.name, Kind: "reconnect", Detail: fmt.Sprintf("incarnation %d", w.gen)})
			}
		case ev := <-events:
			w := workers[ev.w]
			if ev.gen != w.gen || (!w.alive && ev.err == nil && ev.frame.Cell == nil) {
				// Stale incarnation. The one thing still worth taking is
				// a completed cell — "the presumed-dead worker's
				// in-flight result still lands" — through the same
				// dup-tolerant Adopt; everything else (hello, done,
				// errors) belongs to a session that no longer exists.
				if ev.err == nil && ev.frame.Cell != nil {
					if cr, dup, err := m.Adopt(*ev.frame.Cell); err == nil {
						delete(w.outstanding, ev.frame.Cell.Key)
						if !dup {
							lastProgress = time.Now()
							if onCell != nil {
								onCell(cr)
							}
							emit(FleetEvent{Worker: w.name, Kind: "duplicate", Detail: ev.frame.Cell.Key + " (late arrival)", Cells: 1})
							feedAll()
						}
					}
				}
				continue
			}
			w.lastFrame = time.Now()
			if ev.err != nil {
				if !w.alive {
					continue
				}
				if closing && w.closed {
					// A worker tearing its stream down after Close is
					// orderly enough; it owes nothing.
					w.alive, w.done = false, true
					continue
				}
				why := ev.err.Error()
				if ev.err == io.EOF {
					why = "stream closed"
				}
				var fe *FrameError
				if errors.As(ev.err, &fe) {
					why = "malformed frames: " + fe.Error()
				}
				if err := markDead(ev.w, "death", why); err != nil {
					return nil, util, err
				}
				continue
			}
			fr := ev.frame
			switch {
			case fr.Hello != nil:
				if fr.Hello.Cells != total {
					if err := markDead(ev.w, "death", fmt.Sprintf("plan disagreement: worker sees %d cells, plan has %d",
						fr.Hello.Cells, total)); err != nil {
						return nil, util, err
					}
					continue
				}
				w.helloed = true
				// Two cells per pool goroutine: one running, one queued to
				// hide the coordinator round trip. The width is the
				// worker's own, capped at what Open asked for so a corrupt
				// Hello cannot claim the plan.
				w.limit = 2 * min(max(fr.Hello.Workers, 1), max(f.Req.Workers, 1))
				detail := ""
				if w.probing {
					w.probing = false
					detail = "probe readmitted"
					w.cooldown = f.Breaker.cooldown()
				}
				w.fails = nil
				w.attempt = 0
				emit(FleetEvent{Worker: w.name, Kind: "hello", Detail: detail, Cells: fr.Hello.Cells})
				feed(ev.w)
			case fr.Cell != nil:
				w.recvCells++
				cr, dup, err := m.Adopt(*fr.Cell)
				if err != nil {
					if errors.Is(err, sweep.ErrDiverged) {
						return nil, util, err
					}
					// Corrupt record (tampered digest, unknown key):
					// the worker is untrustworthy — kill it; markDead
					// requeues everything it owed, this cell included.
					if err := markDead(ev.w, "death", "corrupt record: "+err.Error()); err != nil {
						return nil, util, err
					}
					continue
				}
				delete(w.outstanding, fr.Cell.Key)
				if dup {
					emit(FleetEvent{Worker: w.name, Kind: "duplicate", Detail: fr.Cell.Key, Cells: 1})
					continue
				}
				lastProgress = time.Now()
				if onCell != nil {
					onCell(cr)
				}
				feed(ev.w)
			case fr.Reject != nil:
				owed := w.outstanding[fr.Reject.Key]
				delete(w.outstanding, fr.Reject.Key)
				emit(FleetEvent{Worker: w.name, Kind: "reject", Detail: fr.Reject.Key + ": " + fr.Reject.Reason, Cells: 1})
				if owed {
					if err := requeue(fr.Reject.Key, "rejected: "+fr.Reject.Reason); err != nil {
						return nil, util, err
					}
					feedAll()
				}
			case fr.Done != nil:
				w.done = true
				util.Merge(fr.Done.Util)
				f.Reports = append(f.Reports, WorkerReport{
					Name:  w.name,
					Cells: fr.Done.Cells,
					Util:  fr.Done.Util,
				})
				detail := ""
				if fr.Done.Cells != w.recvCells {
					detail = fmt.Sprintf("worker counted %d cells, coordinator received %d", fr.Done.Cells, w.recvCells)
				}
				emit(FleetEvent{Worker: w.name, Kind: "done", Detail: detail, Cells: fr.Done.Cells})
			case fr.Err != "":
				if err := markDead(ev.w, "death", "worker failed: "+fr.Err); err != nil {
					return nil, util, err
				}
			default:
				if err := markDead(ev.w, "death", "empty frame"); err != nil {
					return nil, util, err
				}
			}
		}
	}

	sort.Slice(f.Reports, func(i, j int) bool { return f.Reports[i].Name < f.Reports[j].Name })
	rs, err := m.Results()
	if err != nil {
		return nil, util, err
	}
	return rs, util, nil
}
