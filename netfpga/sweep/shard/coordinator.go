package shard

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/netfpga/sweep"
)

// The per-worker circuit breaker: a connector that fails breakerFailures
// times within breakerWindow — deaths and failed dials alike — is
// quarantined, with no redials, for a cooldown starting at
// breakerCooldown. After it expires a single probe dial re-admits the
// worker on a successful Hello; a failed probe doubles the cooldown, up
// to breakerMaxCooldown, and re-quarantines.
const (
	breakerFailures    = 5
	breakerWindow      = time.Minute
	breakerCooldown    = 15 * time.Second
	breakerMaxCooldown = 8 * breakerCooldown
)

// actionKind is what the I/O shell must do for one worker.
type actionKind uint8

const (
	actAttach actionKind = iota // start serving the endpoint the shell holds for w as incarnation gen
	actSend                     // queue cmd on w's current incarnation
	actKill                     // sever w's transport and forget it
	actDial                     // start one dial of w's connector
)

type action struct {
	kind actionKind
	w    int
	gen  int
	cmd  Command
}

// worker is the coordinator's state for one slot: one fixed endpoint or
// one connector, across every incarnation of its transport.
type worker struct {
	name        string
	redial      bool     // a Connector; a fixed endpoint is never redialed
	gen         int      // incarnation counter; stale frames are fenced by it
	outstanding []string // keys assigned to this incarnation, in assignment order
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

// drop removes key from the worker's outstanding cells and reports
// whether it was there.
func (w *worker) drop(key string) bool {
	i := slices.Index(w.outstanding, key)
	if i >= 0 {
		w.outstanding = slices.Delete(w.outstanding, i, i+1)
	}
	return i >= 0
}

// coordinator makes every decision of a fleet run, configured by the
// Fleet it serves: adoption, placement, requeue, the watchdogs,
// reconnect backoff, the breaker, and when the run is over. Each input
// method takes the current time and one observation — a read from worker
// i's incarnation gen, a dial result, a tick — updates the state, and
// appends what the I/O shell must do to out, which the shell drains
// after every input. An input returns a non-nil error only when the run
// has failed. The coordinator starts no goroutine and reads no clock, so
// a test can drive it at fake time.
type coordinator struct {
	f          *Fleet
	m          *sweep.Merger
	total      int
	onCell     func(sweep.CellResult)
	maxRequeue int

	workers  []*worker
	pending  []string // keys not assigned to a live worker, in feed order
	requeues map[string]int

	closing      bool
	closeAt      time.Time
	lastProgress time.Time
	util         sweep.UtilizationReport
	reports      []WorkerReport

	out []action
}

// newCoordinator adopts f.Completed into a fresh merger for plan and
// queues the start of every worker: an attach and Open for each fixed
// endpoint (workers 0..len(f.Endpoints)-1), a dial for each connector
// (the workers after them).
func newCoordinator(f *Fleet, plan *sweep.Plan, onCell func(sweep.CellResult), now time.Time) (*coordinator, error) {
	c := &coordinator{
		f:            f,
		m:            plan.Merger(),
		total:        len(plan.Cells),
		onCell:       onCell,
		maxRequeue:   max(4, 2*(len(f.Endpoints)+len(f.Connectors))),
		requeues:     map[string]int{},
		lastProgress: now,
	}

	// A record that survives Adopt is as good as a fresh execution; one
	// that does not goes back into the pending set.
	adopted, readopt := 0, 0
	for _, rec := range f.Completed {
		_, dup, err := c.m.Adopt(rec)
		switch {
		case errors.Is(err, sweep.ErrDiverged):
			return nil, err
		case err != nil:
			readopt++
			c.emit(FleetEvent{Kind: "adopt", Detail: rec.Key + " rejected: " + err.Error()})
		case !dup:
			adopted++
		}
	}
	if adopted > 0 || readopt > 0 {
		c.emit(FleetEvent{Kind: "adopt", Detail: fmt.Sprintf("%d cells adopted from previous run, %d re-run", adopted, readopt), Cells: adopted})
	}
	c.pending = make([]string, 0, c.total)
	for _, key := range plan.Keys() {
		if !c.m.Filled(key) {
			c.pending = append(c.pending, key)
		}
	}

	for _, ep := range f.Endpoints {
		c.workers = append(c.workers, &worker{name: ep.Name, cooldown: breakerCooldown})
		c.attach(now, len(c.workers)-1)
	}
	for _, conn := range f.Connectors {
		c.workers = append(c.workers, &worker{name: conn.Name, redial: true, lastFrame: now, cooldown: breakerCooldown})
		c.dial(len(c.workers) - 1)
	}
	return c, c.settle(now, nil)
}

// recv takes one read from worker i's incarnation gen: a frame, or the
// error that ended its stream.
func (c *coordinator) recv(now time.Time, i, gen int, fr *SessionFrame, rerr error) error {
	w := c.workers[i]
	if gen != w.gen || !w.alive {
		// A stale incarnation or a worker already declared dead. The one
		// thing still worth taking is a completed cell — the presumed-dead
		// worker's in-flight result still lands — through the same
		// dup-tolerant Adopt; everything else belongs to a session that no
		// longer exists.
		if rerr != nil || fr.Cell == nil {
			return nil
		}
		cr, dup, err := c.m.Adopt(*fr.Cell)
		if errors.Is(err, sweep.ErrDiverged) {
			return err
		}
		if err == nil && !dup {
			c.progress(now, cr)
			c.emit(FleetEvent{Worker: w.name, Kind: "duplicate", Detail: fr.Cell.Key + " (late arrival)", Cells: 1})
			c.feedAll(now)
		}
		return c.settle(now, nil)
	}
	w.lastFrame = now
	var err error
	var fe *FrameError
	switch {
	case rerr != nil && c.closing && w.closed:
		// A worker tearing its stream down after Close is orderly enough;
		// it owes nothing.
		w.alive, w.done = false, true
	case rerr == io.EOF:
		err = c.kill(now, i, "death", "stream closed")
	case errors.As(rerr, &fe):
		err = c.kill(now, i, "death", "malformed frames: "+fe.Error())
	case rerr != nil:
		err = c.kill(now, i, "death", rerr.Error())
	case fr.Hello != nil:
		err = c.hello(now, i, fr.Hello)
	case fr.Cell != nil:
		w.recvCells++
		cr, dup, aerr := c.m.Adopt(*fr.Cell)
		switch {
		case errors.Is(aerr, sweep.ErrDiverged):
			return aerr
		case aerr != nil:
			// Corrupt record (tampered digest, unknown key): the worker is
			// untrustworthy — kill it; that requeues everything it owed,
			// this cell included.
			err = c.kill(now, i, "death", "corrupt record: "+aerr.Error())
		default:
			// A duplicate frees its slot like a first completion: a worker
			// left holding only duplicates must still be topped up.
			w.drop(fr.Cell.Key)
			if dup {
				c.emit(FleetEvent{Worker: w.name, Kind: "duplicate", Detail: fr.Cell.Key, Cells: 1})
			} else {
				c.progress(now, cr)
			}
			c.feed(now, i)
		}
	case fr.Reject != nil:
		c.emit(FleetEvent{Worker: w.name, Kind: "reject", Detail: fr.Reject.Key + ": " + fr.Reject.Reason, Cells: 1})
		if w.drop(fr.Reject.Key) {
			if err = c.requeue(fr.Reject.Key, "rejected: "+fr.Reject.Reason); err == nil {
				c.feedAll(now)
			}
		}
	case fr.Done != nil:
		w.done = true
		c.util.Merge(fr.Done.Util)
		c.reports = append(c.reports, WorkerReport{Name: w.name, Cells: fr.Done.Cells, Util: fr.Done.Util})
		detail := ""
		if fr.Done.Cells != w.recvCells {
			detail = fmt.Sprintf("worker counted %d cells, coordinator received %d", fr.Done.Cells, w.recvCells)
		}
		c.emit(FleetEvent{Worker: w.name, Kind: "done", Detail: detail, Cells: fr.Done.Cells})
	case fr.Err != "":
		err = c.kill(now, i, "death", "worker failed: "+fr.Err)
	default:
		err = c.kill(now, i, "death", "empty frame")
	}
	return c.settle(now, err)
}

// hello admits worker i's session: the plan must agree, and the
// worker's in-flight depth becomes two cells per pool goroutine — one
// running, one queued to hide the coordinator round trip — with the
// width the worker's own, capped at what Open asked for so a corrupt
// Hello cannot claim the plan.
func (c *coordinator) hello(now time.Time, i int, h *Hello) error {
	w := c.workers[i]
	if h.Cells != c.total {
		return c.kill(now, i, "death", fmt.Sprintf("plan disagreement: worker sees %d cells, plan has %d", h.Cells, c.total))
	}
	w.helloed = true
	w.limit = 2 * min(max(h.Workers, 1), max(c.f.Req.Workers, 1))
	w.attempt = 0
	// A Hello leaves the failure history alone — a worker that says hello
	// and then dies keeps counting toward its quarantine. Only tripping
	// the breaker clears it, so a readmitted probe starts from none.
	detail := ""
	if w.probing {
		w.probing = false
		w.cooldown = breakerCooldown
		detail = "probe readmitted"
	}
	c.emit(FleetEvent{Worker: w.name, Kind: "hello", Detail: detail, Cells: h.Cells})
	c.feed(now, i)
	return nil
}

// dialed takes the result of worker i's dial. On success the shell holds
// the new endpoint for i: it is attached as the next incarnation, or
// killed if the run is already closing.
func (c *coordinator) dialed(now time.Time, i int, err error) error {
	w := c.workers[i]
	w.dialing = false
	switch {
	case c.closing:
		c.out = append(c.out, action{kind: actKill, w: i})
		return nil
	case err != nil:
		w.lastWhy = "dial: " + err.Error()
		c.emit(FleetEvent{Worker: w.name, Kind: "redial-failed", Detail: err.Error()})
		c.failed(now, i)
	default:
		c.attach(now, i)
		if w.gen > 1 {
			c.emit(FleetEvent{Worker: w.name, Kind: "reconnect", Detail: fmt.Sprintf("incarnation %d", w.gen)})
		}
	}
	return c.settle(now, nil)
}

// tick runs the watchdogs — close grace, stall, hang — and starts the
// redials that are due, probes included.
func (c *coordinator) tick(now time.Time) error {
	if c.closing {
		if now.Sub(c.closeAt) > closeGrace {
			for i, w := range c.workers {
				if w.alive && !w.done {
					// Its cells are already merged, so nothing is lost.
					_ = c.kill(now, i, "death", "no done frame within close grace")
				}
			}
		}
		return nil
	}
	if c.f.StallTimeout > 0 && now.Sub(c.lastProgress) > c.f.StallTimeout {
		return &StallError{
			Stalled: now.Sub(c.lastProgress),
			Merged:  c.m.Placed(),
			Total:   c.total,
			Pending: len(c.pending),
			Workers: c.forensics(now),
		}
	}
	if hang := c.f.HangTimeout; hang > 0 {
		for i, w := range c.workers {
			owes := len(w.outstanding) > 0 || !w.helloed
			if w.alive && owes && now.Sub(w.lastFrame) > hang {
				if err := c.kill(now, i, "hang", fmt.Sprintf("silent for over %v with %d cells outstanding",
					hang, len(w.outstanding))); err != nil {
					return err
				}
			}
		}
	}
	for i, w := range c.workers {
		if w.alive || w.dialing || !w.redial {
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
			c.emit(FleetEvent{Worker: w.name, Kind: "probe", Detail: "quarantine expired; probing"})
		}
		if !now.Before(w.nextDial) {
			c.dial(i)
		}
	}
	return c.settle(now, nil)
}

// finished reports whether the run is over: closing, and every worker
// still alive has sent its Done.
func (c *coordinator) finished() bool {
	if !c.closing {
		return false
	}
	for _, w := range c.workers {
		if w.alive && !w.done {
			return false
		}
	}
	return true
}

// settle ends every input that can change the run's course: err, when
// set, is the run's failure; otherwise the run starts closing once every
// cell is merged, and fails once no path to completion is left — every
// fixed endpoint dead, every connector quarantined with no dial in
// flight.
func (c *coordinator) settle(now time.Time, err error) error {
	if err != nil || c.closing {
		return err
	}
	if c.m.Placed() == c.total {
		c.closing, c.closeAt = true, now
		for i, w := range c.workers {
			if w.alive && !w.closed {
				w.closed = true
				c.send(i, Command{Close: true})
			}
		}
		return nil
	}
	for _, w := range c.workers {
		if w.alive || w.dialing || (w.redial && !now.Before(w.quarUntil)) {
			return nil
		}
	}
	return &FleetDownError{Merged: c.m.Placed(), Total: c.total, Workers: c.forensics(now)}
}

func (c *coordinator) emit(ev FleetEvent) {
	if c.f.OnEvent != nil {
		c.f.OnEvent(ev)
	}
}

func (c *coordinator) send(i int, cmd Command) {
	c.out = append(c.out, action{kind: actSend, w: i, cmd: cmd})
}

func (c *coordinator) dial(i int) {
	c.workers[i].dialing = true
	c.out = append(c.out, action{kind: actDial, w: i})
}

// attach starts worker i's next incarnation with the session Open.
func (c *coordinator) attach(now time.Time, i int) {
	w := c.workers[i]
	w.gen++
	w.lastFrame = now
	w.alive, w.helloed, w.closed, w.done = true, false, false, false
	c.out = append(c.out, action{kind: actAttach, w: i, gen: w.gen})
	c.send(i, Command{Open: &c.f.Req})
}

func (c *coordinator) progress(now time.Time, cr sweep.CellResult) {
	c.lastProgress = now
	if c.onCell != nil {
		c.onCell(cr)
	}
}

// feed tops worker i up to its outstanding limit with one Assign. An
// idle worker owed no frame, so its hang clock starts now.
func (c *coordinator) feed(now time.Time, i int) {
	w := c.workers[i]
	if !w.alive || !w.helloed || w.closed {
		return
	}
	n := min(w.limit-len(w.outstanding), len(c.pending))
	if n <= 0 {
		return
	}
	if len(w.outstanding) == 0 {
		w.lastFrame = now
	}
	// pending only ever grows at its tail, so the prefix handed out here
	// is never written again and the shell may encode it in place.
	keys := c.pending[:n:n]
	c.pending = c.pending[n:]
	w.outstanding = append(w.outstanding, keys...)
	c.send(i, Command{Assign: &Assign{Keys: keys}})
}

func (c *coordinator) feedAll(now time.Time) {
	for i := range c.workers {
		c.feed(now, i)
	}
}

func (c *coordinator) requeue(key, why string) error {
	if c.m.Filled(key) {
		return nil
	}
	c.requeues[key]++
	if n := c.requeues[key]; n > c.maxRequeue {
		return fmt.Errorf("shard: cell %s failed %d workers (last: %s)", key, n, why)
	}
	c.pending = append(c.pending, key)
	return nil
}

// kill declares worker i dead: its transport is severed, every cell it
// still owed is requeued, and a connector's failure goes to the breaker.
func (c *coordinator) kill(now time.Time, i int, kind, why string) error {
	w := c.workers[i]
	if !w.alive {
		return nil
	}
	w.alive = false
	w.deaths++
	w.lastWhy = why
	c.out = append(c.out, action{kind: actKill, w: i})
	var err error
	for _, key := range w.outstanding {
		if e := c.requeue(key, why); e != nil && err == nil {
			err = e
		}
	}
	n := len(w.outstanding)
	w.outstanding = w.outstanding[:0]
	c.emit(FleetEvent{Worker: w.name, Kind: kind, Detail: why, Cells: n})
	c.failed(now, i)
	if err != nil {
		return err
	}
	c.feedAll(now)
	return nil
}

// failed feeds a connector's death or failed dial to the breaker — a
// failure during a probe is the probe's verdict, re-quarantine with the
// cooldown doubled — and, unless that quarantines it, schedules its next
// redial on the backoff.
func (c *coordinator) failed(now time.Time, i int) {
	w := c.workers[i]
	if !w.redial {
		return
	}
	if w.probing {
		w.probing = false
		w.cooldown = min(2*w.cooldown, breakerMaxCooldown)
		w.quarUntil = now.Add(w.cooldown)
		c.emit(FleetEvent{Worker: w.name, Kind: "quarantine", Detail: fmt.Sprintf("probe failed; quarantined for %v", w.cooldown)})
		return
	}
	w.fails = append(w.fails, now)
	cut := now.Add(-breakerWindow)
	for len(w.fails) > 0 && w.fails[0].Before(cut) {
		w.fails = w.fails[1:]
	}
	if len(w.fails) >= breakerFailures {
		w.quarUntil = now.Add(w.cooldown)
		w.fails = w.fails[:0]
		c.emit(FleetEvent{Worker: w.name, Kind: "quarantine",
			Detail: fmt.Sprintf("%d failures within %v; quarantined for %v", breakerFailures, breakerWindow, w.cooldown)})
		return
	}
	w.attempt++
	w.nextDial = now.Add(redialDelay(w.name, w.attempt))
}

func (c *coordinator) forensics(now time.Time) []WorkerForensics {
	out := make([]WorkerForensics, len(c.workers))
	for i, w := range c.workers {
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
