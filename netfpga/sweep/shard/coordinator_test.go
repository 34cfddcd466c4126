package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/netfpga/sweep"
)

var (
	refOnce sync.Once
	refPlan *sweep.Plan
	refRecs map[string]sweep.CellRecord
	refErr  error
)

// reference plans the test matrix and executes it in-process once,
// returning each cell's record by key: the frames the fake workers
// answer with.
func reference(tb testing.TB) (*sweep.Plan, map[string]sweep.CellRecord) {
	tb.Helper()
	refOnce.Do(func() {
		if refPlan, refErr = sweep.PlanGroups([]sweep.Group{testGroup()}, "", 0); refErr != nil {
			return
		}
		var rs *sweep.Results
		if rs, refErr = sweep.RunGroups(context.Background(), &sweep.Runner{Workers: 2}, []sweep.Group{testGroup()}, ""); refErr != nil {
			return
		}
		refRecs = map[string]sweep.CellRecord{}
		for _, cr := range rs.Cells {
			refRecs[cr.Cell.Key] = cr.Record()
		}
	})
	if refErr != nil {
		tb.Fatal(refErr)
	}
	return refPlan, refRecs
}

// fakeWorker is the harness's model of one worker slot: what its current
// incarnation has been sent and owes, plus what the breaker has told it.
type fakeWorker struct {
	gen                     int
	opened, helloed, closed bool
	done, dead, dialing     bool
	owed                    []string // assigned and not yet answered, in order
	assigns                 []int    // keys per Assign, this incarnation
	quarantined, probed     bool
	probeDials              int

	// A net worker's incarnation: its own plan (and so its own device
	// cache), its chaos stream, what it has written, and whether its
	// stream has gone quiet for good — severed or hung.
	plan          *sweep.Plan
	chaos         *chaosStream
	frames, cells int
	gone          bool
}

// harness drives a coordinator at fake time, playing every worker. After
// each input it executes the coordinator's actions against its model
// and checks the invariants any run must keep.
type harness struct {
	tb     testing.TB
	c      *coordinator
	now    time.Time
	recs   map[string]sweep.CellRecord
	ws     []*fakeWorker
	names  map[string]int
	events []FleetEvent
	cells  map[string]int // onCell count per key
	err    error          // the run's failure, once an input returned one
	net    *fleetNet      // the workers execute real cells; nil when the test plays them
}

// newHarness builds a coordinator over the test matrix for a fleet of n
// fixed endpoints ("e0", ...) followed by m connectors ("c0", ...),
// whose workers the test plays; f carries the rest of the
// configuration.
func newHarness(tb testing.TB, f *Fleet, n, m int) *harness {
	tb.Helper()
	plan, recs := reference(tb)
	return startHarness(tb, f, plan, recs, nil, n, m)
}

// startHarness builds the coordinator over plan, whose reference records
// are recs; with net set, its workers execute cells themselves.
func startHarness(tb testing.TB, f *Fleet, plan *sweep.Plan, recs map[string]sweep.CellRecord, net *fleetNet, n, m int) *harness {
	tb.Helper()
	h := &harness{tb: tb, now: time.Unix(1e9, 0), recs: recs, names: map[string]int{}, cells: map[string]int{}, net: net}
	if net != nil {
		net.queue = make([][]delivery, n+m)
	}
	for i := 0; i < n; i++ {
		f.Endpoints = append(f.Endpoints, &Endpoint{Name: fmt.Sprintf("e%d", i)})
	}
	for i := 0; i < m; i++ {
		f.Connectors = append(f.Connectors, &Connector{Name: fmt.Sprintf("c%d", i)})
	}
	for i := 0; i < n+m; i++ {
		h.ws = append(h.ws, &fakeWorker{})
		if i < n {
			h.names[f.Endpoints[i].Name] = i
		} else {
			h.names[f.Connectors[i-n].Name] = i
		}
	}
	f.OnEvent = h.event
	var err error
	h.c, err = newCoordinator(f, plan, func(cr sweep.CellResult) { h.cells[cr.Cell.Key]++ }, h.now)
	if h.c == nil {
		h.err = err
		return h
	}
	h.step(err)
	return h
}

func (h *harness) event(ev FleetEvent) {
	h.events = append(h.events, ev)
	i, ok := h.names[ev.Worker]
	if !ok {
		return
	}
	w := h.ws[i]
	switch ev.Kind {
	case "quarantine":
		w.quarantined, w.probed, w.probeDials = true, false, 0
	case "probe":
		if !w.quarantined {
			h.tb.Errorf("%s probed without a quarantine", ev.Worker)
		}
		w.probed = true
	case "hello":
		if ev.Detail == "probe readmitted" {
			w.quarantined = false
		}
	}
}

// step records an input's outcome, executes its actions and checks the
// invariants.
func (h *harness) step(err error) error {
	h.tb.Helper()
	if err != nil && h.err == nil {
		h.err = err
	}
	for _, a := range h.c.out {
		w := h.ws[a.w]
		switch a.kind {
		case actAttach:
			if a.gen != h.c.workers[a.w].gen {
				h.tb.Errorf("worker %d attached as generation %d, coordinator is at %d", a.w, a.gen, h.c.workers[a.w].gen)
			}
			w.gen, w.opened, w.helloed, w.closed, w.done, w.dead = a.gen, false, false, false, false, false
			w.owed, w.assigns = nil, nil
			w.plan, w.chaos, w.frames, w.cells, w.gone = nil, nil, 0, 0, false
			if h.net != nil && h.net.mix.seed != 0 {
				w.chaos = newChaosStream(h.net.mix.seed, fmt.Sprintf("%s#%d", h.c.workers[a.w].name, a.gen))
			}
		case actSend:
			// The worker reads what the wire carries.
			var buf bytes.Buffer
			var cmd Command
			if err := WriteFrame(&buf, a.cmd); err != nil {
				h.tb.Fatal(err)
			}
			if err := ReadFrame(&buf, &cmd); err != nil {
				h.tb.Fatal(err)
			}
			switch {
			case cmd.Open != nil:
				w.opened = true
				if h.net != nil {
					h.open(a.w, *cmd.Open)
				}
			case cmd.Assign != nil:
				if !w.helloed || w.closed || w.dead {
					h.tb.Errorf("Assign to worker %d (helloed %v, closed %v, dead %v)", a.w, w.helloed, w.closed, w.dead)
				}
				w.owed = append(w.owed, cmd.Assign.Keys...)
				w.assigns = append(w.assigns, len(cmd.Assign.Keys))
			case cmd.Close:
				w.closed = true
				if h.net != nil {
					h.finishSession(a.w)
				}
			}
		case actKill:
			w.dead = true
		case actDial:
			if w.dialing {
				h.tb.Errorf("second dial of worker %d in flight", a.w)
			}
			if w.quarantined {
				if !w.probed || w.probeDials > 0 {
					h.tb.Errorf("quarantined worker %d dialed (probe announced %v, probe dials so far %d)", a.w, w.probed, w.probeDials)
				}
				w.probeDials++
			}
			w.dialing = true
		}
	}
	h.c.out = h.c.out[:0]
	h.check()
	return err
}

// check asserts the placement invariants: no key pending and outstanding
// at once, none outstanding twice across live workers, no live worker
// holding more than its limit, and every key a live incarnation still
// owes outstanding on it.
func (h *harness) check() {
	h.tb.Helper()
	owner := map[string]int{}
	for i, w := range h.c.workers {
		if !w.alive {
			continue
		}
		if len(w.outstanding) > w.limit {
			h.tb.Errorf("worker %d holds %d cells over its limit of %d", i, len(w.outstanding), w.limit)
		}
		if fw := h.ws[i]; fw.gen == w.gen && !fw.dead {
			for _, k := range fw.owed {
				if !slices.Contains(w.outstanding, k) {
					h.tb.Errorf("worker %d owes %s, which is not outstanding on it", i, k)
				}
			}
		}
		for _, k := range w.outstanding {
			if j, ok := owner[k]; ok {
				h.tb.Errorf("%s outstanding on workers %d and %d", k, j, i)
			}
			owner[k] = i
		}
	}
	for _, k := range h.c.pending {
		if i, ok := owner[k]; ok {
			h.tb.Errorf("%s both pending and outstanding on worker %d", k, i)
		}
	}
	for k, n := range h.cells {
		if n > 1 {
			h.tb.Errorf("%s reached onCell %d times", k, n)
		}
	}
}

func (h *harness) frame(i, gen int, fr *SessionFrame) error {
	return h.step(h.c.recv(h.now, i, gen, fr, nil))
}

func (h *harness) hello(i, width, cells int) error {
	h.ws[i].helloed = true
	return h.frame(i, h.ws[i].gen, &SessionFrame{Hello: &Hello{Cells: cells, Workers: width}})
}

// cell answers worker i's oldest owed key; mutate, when non-nil, edits
// the record first.
func (h *harness) cell(i int, mutate func(*sweep.CellRecord)) error {
	w := h.ws[i]
	rec := h.recs[w.owed[0]]
	w.owed = w.owed[1:]
	if mutate != nil {
		mutate(&rec)
	}
	return h.frame(i, w.gen, &SessionFrame{Cell: &rec})
}

func (h *harness) reject(i int) error {
	w := h.ws[i]
	key := w.owed[0]
	w.owed = w.owed[1:]
	return h.frame(i, w.gen, &SessionFrame{Reject: &Reject{Key: key, Reason: "not in my plan"}})
}

func (h *harness) done(i int) error {
	h.ws[i].done = true
	return h.frame(i, h.ws[i].gen, &SessionFrame{Done: &SessionDone{Cells: 1}})
}

func (h *harness) lose(i int, err error) error {
	h.ws[i].dead = true
	return h.step(h.c.recv(h.now, i, h.ws[i].gen, nil, err))
}

func (h *harness) dialed(i int, err error) error {
	h.ws[i].dialing = false
	return h.step(h.c.dialed(h.now, i, err))
}

func (h *harness) advance(d time.Duration) error {
	h.now = h.now.Add(d)
	return h.step(h.c.tick(h.now))
}

func (h *harness) count(worker, kind string) int {
	n := 0
	for _, ev := range h.events {
		if ev.Worker == worker && ev.Kind == kind {
			n++
		}
	}
	return n
}

// healthy makes one input a well-behaved fleet would: finish a dial,
// say hello, answer an owed cell, acknowledge Close — or, with nothing to
// do, let a second pass. It reports whether the run is still going.
func (h *harness) healthy() bool {
	if h.err != nil || h.c.finished() {
		return false
	}
	if h.net != nil {
		h.netHealthy()
		return true
	}
	for i, w := range h.ws {
		switch {
		case w.dialing:
			h.dialed(i, nil)
		case w.dead:
			continue
		case w.opened && !w.helloed:
			h.hello(i, 1, h.c.total)
		case len(w.owed) > 0:
			h.cell(i, nil)
		case w.closed && !w.done:
			h.done(i)
		default:
			continue
		}
		return true
	}
	h.advance(time.Second)
	return true
}

var budgetErr = regexp.MustCompile(`^shard: cell \S+ failed \d+ workers \(last: `)

// verify runs the fleet to its end on healthy inputs and checks the
// outcome: every key filled exactly once with the reference digest, or
// a typed failure.
func (h *harness) verify(completed map[string]bool) {
	h.tb.Helper()
	for n := 0; h.healthy(); n++ {
		if n == 100000 {
			h.tb.Fatal("run did not finish on healthy inputs")
		}
	}
	if h.err != nil {
		var se *StallError
		var fd *FleetDownError
		if !errors.As(h.err, &se) && !errors.As(h.err, &fd) && !budgetErr.MatchString(h.err.Error()) {
			h.tb.Fatalf("run failed with an untyped error: %v", h.err)
		}
		return
	}
	rs, err := h.c.m.Results()
	if err != nil {
		h.tb.Fatal(err)
	}
	for _, cr := range rs.Cells {
		if cr.Digest != h.recs[cr.Cell.Key].Digest {
			h.tb.Errorf("%s digest %s, reference %s", cr.Cell.Key, cr.Digest, h.recs[cr.Cell.Key].Digest)
		}
		want := 1
		if completed[cr.Cell.Key] {
			want = 0
		}
		if h.cells[cr.Cell.Key] != want {
			h.tb.Errorf("%s reached onCell %d times, want %d", cr.Cell.Key, h.cells[cr.Cell.Key], want)
		}
	}
}

func TestCoordinatorHangAtExactlyHangTimeout(t *testing.T) {
	// One endpoint, plus a connector whose dial never returns so a path
	// to completion remains after the endpoint dies.
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}, HangTimeout: 2 * time.Second}, 1, 1)
	h.hello(0, 1, h.c.total)
	if err := h.advance(2 * time.Second); err != nil || h.count("e0", "hang") != 0 {
		t.Fatalf("silent for exactly HangTimeout: hang events %d, err %v", h.count("e0", "hang"), err)
	}
	if err := h.advance(time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if h.count("e0", "hang") != 1 || !h.ws[0].dead {
		t.Fatalf("silent past HangTimeout: hang events %d, killed %v", h.count("e0", "hang"), h.ws[0].dead)
	}
	if ev := h.events[len(h.events)-1]; ev.Cells != 2 || len(h.c.pending) != h.c.total {
		t.Errorf("hang requeued %d cells, %d pending; want 2 and all %d", ev.Cells, len(h.c.pending), h.c.total)
	}
}

func TestCoordinatorStallForensics(t *testing.T) {
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}, StallTimeout: time.Minute}, 1, 0)
	h.hello(0, 1, h.c.total)
	h.cell(0, nil)
	if err := h.advance(time.Minute); err != nil {
		t.Fatalf("stalled for exactly StallTimeout: %v", err)
	}
	err := h.advance(time.Nanosecond)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	want := StallError{Stalled: time.Minute + time.Nanosecond, Merged: 1, Total: h.c.total, Pending: h.c.total - 3}
	if se.Stalled != want.Stalled || se.Merged != want.Merged || se.Total != want.Total || se.Pending != want.Pending {
		t.Errorf("stall accounting %+v, want %+v", *se, want)
	}
	wf := WorkerForensics{Name: "e0", Alive: true, Helloed: true, Outstanding: 2, Cells: 1, SinceFrame: time.Minute + time.Nanosecond}
	if len(se.Workers) != 1 || se.Workers[0] != wf {
		t.Errorf("forensics %+v, want [%+v]", se.Workers, wf)
	}
}

func TestCoordinatorCloseGraceKill(t *testing.T) {
	h := newHarness(t, &Fleet{Req: Request{Workers: 4}}, 2, 0)
	h.hello(0, 4, h.c.total)
	h.hello(1, 4, h.c.total)
	for len(h.ws[0].owed)+len(h.ws[1].owed) > 0 {
		for i := range h.ws {
			if len(h.ws[i].owed) > 0 {
				h.cell(i, nil)
			}
		}
	}
	if !h.ws[0].closed || !h.ws[1].closed {
		t.Fatal("every cell merged, but Close not sent to both workers")
	}
	h.done(0)
	if err := h.advance(closeGrace); err != nil || h.c.finished() {
		t.Fatalf("at exactly the close grace: finished %v, err %v", h.c.finished(), err)
	}
	if err := h.advance(time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if !h.ws[1].dead || h.count("e1", "death") != 1 || !h.c.finished() {
		t.Fatalf("past the close grace: mute worker killed %v, deaths %d, finished %v",
			h.ws[1].dead, h.count("e1", "death"), h.c.finished())
	}
	if h.ws[0].dead {
		t.Error("the worker that sent Done was killed")
	}
}

func TestCoordinatorRequeueBudget(t *testing.T) {
	h := newHarness(t, &Fleet{Req: Request{Workers: 4}}, 1, 0)
	h.hello(0, 4, h.c.total)
	key := h.ws[0].owed[0]
	var err error
	for n := 1; err == nil; n++ {
		if n > 5 {
			t.Fatal("a cell rejected 5 times did not fail the run")
		}
		// The rejected key is requeued and handed straight back.
		for h.ws[0].owed[0] != key {
			h.cell(0, nil)
		}
		err = h.reject(0)
	}
	if !budgetErr.MatchString(err.Error()) || !strings.Contains(err.Error(), key+" failed 5 workers") {
		t.Fatalf("error %v, want %s failing 5 workers", err, key)
	}
}

func TestCoordinatorLateCellFromStaleGeneration(t *testing.T) {
	// A pool of 4 holds all 8 cells, so the second incarnation is handed
	// every key the first one owed.
	h := newHarness(t, &Fleet{Req: Request{Workers: 4}}, 0, 1)
	h.dialed(0, nil)
	h.hello(0, 4, h.c.total)
	late := h.ws[0].owed[0]
	h.lose(0, io.EOF)
	if h.count("c0", "death") != 1 || h.c.m.Filled(late) {
		t.Fatal("the first incarnation's death was not recorded")
	}
	h.advance(time.Second) // past the first redial's backoff
	if !h.ws[0].dialing {
		t.Fatal("dead connector not redialed")
	}
	h.dialed(0, nil)
	if h.c.workers[0].gen != 2 {
		t.Fatalf("redial attached generation %d, want 2", h.c.workers[0].gen)
	}
	// The first incarnation's frames straggle in after the redial: its
	// hello is ignored, its cell adopted — and the second incarnation,
	// which owes the same key, keeps it outstanding.
	h.frame(0, 1, &SessionFrame{Hello: &Hello{Cells: h.c.total, Workers: 4}})
	if h.c.workers[0].helloed {
		t.Error("generation 1's hello admitted generation 2")
	}
	h.hello(0, 4, h.c.total)
	rec := h.recs[late]
	if err := h.frame(0, 1, &SessionFrame{Cell: &rec}); err != nil {
		t.Fatal(err)
	}
	if !h.c.m.Filled(late) || h.cells[late] != 1 {
		t.Fatalf("late cell from generation 1: filled %v, onCell %d", h.c.m.Filled(late), h.cells[late])
	}
	if ev := h.events[len(h.events)-1]; ev.Kind != "duplicate" || ev.Detail != late+" (late arrival)" {
		t.Errorf("last event %+v, want a late-arrival duplicate", ev)
	}
	if !slices.Contains(h.c.workers[0].outstanding, late) {
		t.Errorf("generation 1's late %s took the key off generation 2, which still owes it", late)
	}
	h.verify(nil)
}

func TestCoordinatorHelloPlanDisagreement(t *testing.T) {
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}}, 1, 1)
	h.hello(0, 1, h.c.total+1)
	if !h.ws[0].dead || h.count("e0", "death") != 1 {
		t.Fatal("a worker whose plan disagrees was not killed")
	}
	want := fmt.Sprintf("plan disagreement: worker sees %d cells, plan has %d", h.c.total+1, h.c.total)
	if ev := h.events[len(h.events)-1]; ev.Detail != want {
		t.Errorf("death detail %q, want %q", ev.Detail, want)
	}
}

func TestCoordinatorForgedHelloWidthCapped(t *testing.T) {
	for _, tc := range []struct{ asked, hello, first int }{
		{asked: 2, hello: 1 << 20, first: 4},
		{asked: 2, hello: 0, first: 2},
		{asked: 3, hello: 2, first: 4},
	} {
		h := newHarness(t, &Fleet{Req: Request{Workers: tc.asked}}, 1, 0)
		h.hello(0, tc.hello, h.c.total)
		if got := h.ws[0].assigns; len(got) != 1 || got[0] != tc.first {
			t.Errorf("Open asked %d, Hello declared %d: assigns %v, want [%d]", tc.asked, tc.hello, got, tc.first)
		}
	}
}

// TestCoordinatorBreaker: five failures inside the window quarantine a
// connector whether or not it said hello in between; the cooldown's
// probe is its only dial; a failed probe doubles the cooldown up to 8x;
// a readmitted probe resets it.
func TestCoordinatorBreaker(t *testing.T) {
	// e0 stays alive and silent, so the fleet always has a path.
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}}, 1, 1)
	const c0 = 1
	redial := func() {
		t.Helper()
		for i := 0; !h.ws[c0].dialing; i++ {
			if i == 200 {
				t.Fatal("connector not redialed")
			}
			h.advance(100 * time.Millisecond)
		}
	}
	h.dialed(c0, errors.New("connection refused"))
	for i := 0; i < breakerFailures-1; i++ {
		redial()
		h.dialed(c0, nil)
		h.hello(c0, 1, h.c.total)
		h.lose(c0, io.EOF)
	}
	if h.count("c0", "quarantine") != 1 {
		t.Fatalf("%d quarantines after a failed dial and %d deaths after hello, want 1", h.count("c0", "quarantine"), breakerFailures-1)
	}
	fd := h.c.forensics(h.now)[c0]
	if !fd.Quarantined || fd.Deaths != breakerFailures-1 {
		t.Errorf("forensics %s, want quarantined after %d deaths", fd, breakerFailures-1)
	}

	cooldown := breakerCooldown
	for _, want := range []time.Duration{2, 4, 8, 8} { // multiples of breakerCooldown
		h.advance(cooldown - time.Nanosecond)
		if h.ws[c0].dialing {
			t.Fatalf("dialed %v into a %v quarantine", cooldown-time.Nanosecond, cooldown)
		}
		h.advance(time.Nanosecond)
		if !h.ws[c0].dialing || h.count("c0", "probe") == 0 {
			t.Fatalf("no probe at the end of a %v quarantine", cooldown)
		}
		h.dialed(c0, errors.New("connection refused"))
		if cooldown = h.c.workers[c0].cooldown; cooldown != want*breakerCooldown {
			t.Fatalf("failed probe: cooldown %v, want %v", cooldown, want*breakerCooldown)
		}
	}
	h.advance(cooldown)
	h.dialed(c0, nil)
	h.hello(c0, 1, h.c.total)
	if ev := h.events[len(h.events)-1]; ev.Detail != "probe readmitted" || h.c.workers[c0].cooldown != breakerCooldown {
		t.Fatalf("successful probe: %+v, cooldown %v", ev, h.c.workers[c0].cooldown)
	}
	quarantines := h.count("c0", "quarantine")
	for i := 0; i < breakerFailures; i++ {
		h.lose(c0, io.EOF)
		if i < breakerFailures-1 {
			redial()
			h.dialed(c0, nil)
			h.hello(c0, 1, h.c.total)
		}
	}
	if h.count("c0", "quarantine") != quarantines+1 || h.c.workers[c0].quarUntil != h.now.Add(breakerCooldown) {
		t.Errorf("five deaths after readmission: %d new quarantines until %v, want 1 of %v",
			h.count("c0", "quarantine")-quarantines, h.c.workers[c0].quarUntil.Sub(h.now), breakerCooldown)
	}
}

// TestCoordinatorFleetDown: a connector whose every dial fails is
// quarantined at its fifth failure, and with no other path to completion
// the run fails with a *FleetDownError whose forensics name it.
func TestCoordinatorFleetDown(t *testing.T) {
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}}, 0, 1)
	start := h.now
	for i := 0; h.err == nil; i++ {
		if i == 1000 {
			t.Fatal("a connector that never dials in did not bring the fleet down")
		}
		if h.ws[0].dialing {
			h.dialed(0, errors.New("connection refused"))
		} else {
			h.advance(100 * time.Millisecond)
		}
	}
	var fd *FleetDownError
	if !errors.As(h.err, &fd) {
		t.Fatalf("want *FleetDownError, got %v", h.err)
	}
	want := WorkerForensics{Name: "c0", Quarantined: true, Attempts: breakerFailures - 1,
		SinceFrame: h.now.Sub(start), LastError: "dial: connection refused"}
	if fd.Merged != 0 || fd.Total != h.c.total || len(fd.Workers) != 1 || fd.Workers[0] != want {
		t.Errorf("fleet down %+v, want 0 of %d merged and forensics [%+v]", *fd, h.c.total, want)
	}
	if !strings.Contains(h.err.Error(), "dead or quarantined") || !strings.Contains(h.err.Error(), "c0[quarantined") {
		t.Errorf("error text lost the diagnosis: %v", h.err)
	}
}

// TestCoordinatorStaleDivergingCellFatal: a dead incarnation's late
// record that contradicts an adopted one is a determinism violation like
// any other, not a frame to drop.
func TestCoordinatorStaleDivergingCellFatal(t *testing.T) {
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}}, 1, 1)
	h.dialed(1, nil)
	h.hello(1, 1, h.c.total)
	key := h.ws[1].owed[0]
	rec := divergentTwin(t, key)
	h.lose(1, io.EOF)
	h.hello(0, 1, h.c.total)
	for !h.c.m.Filled(key) {
		h.cell(0, nil)
	}
	if err := h.frame(1, 1, &SessionFrame{Cell: &rec}); !errors.Is(err, sweep.ErrDiverged) {
		t.Fatalf("diverging late record: %v, want ErrDiverged", err)
	}
}

// TestBackoffDelaySchedule pins the redial schedule: exponential from
// 250 ms to 10 s plus a jitter in [0, delay/2] derived from (name,
// attempt) alone — the same on every run and every machine.
func TestBackoffDelaySchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		want []time.Duration
	}{
		{"proc:0", []time.Duration{347838908, 592024190, 1071443438, 2662435904, 4681894279, 10934034085, 12935254097, 10004532116}},
		{"tcp:127.0.0.1:9090", []time.Duration{271553099, 550038023, 1480970848, 2747592559, 4714894802, 10588671425, 10463285158, 12927071695}},
	} {
		for i, want := range tc.want {
			if got := redialDelay(tc.name, i+1); got != want {
				t.Errorf("redialDelay(%q, %d) = %v, want %v", tc.name, i+1, got, want)
			}
		}
	}
}

// FuzzCoordinator drives the coordinator with a byte program of worker
// frames, read errors, dial results and clock advances, then finishes
// the run on healthy inputs. Throughout, the placement invariants hold,
// no Assign goes out before Hello or after Close, and a quarantined
// worker gets no dial but its one probe; at the end every key is filled
// exactly once with the reference digest, or the run failed with a
// typed error.
func FuzzCoordinator(f *testing.F) {
	reference(f)
	f.Add([]byte{0x14, 0x01, 7, 0, 0, 1, 0, 0, 1, 0, 1, 0, 5, 0, 8, 3, 7, 0})
	f.Add([]byte{0x59, 0x46, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2, 2, 0, 4, 1, 8, 5, 8, 6, 3, 0})
	f.Add([]byte{0x08, 0x00, 7, 1, 8, 4, 7, 1, 8, 4, 7, 1, 8, 4, 7, 1, 8, 4, 7, 1, 8, 6, 8, 8, 7, 0, 0, 0})
	f.Add([]byte{0x11, 0x02, 0, 0x80, 0, 1, 1, 0, 1, 0x40, 6, 3, 9, 1, 1, 1, 2, 0, 8, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		cfg, opts := prog[0], prog[1]
		prog = prog[2:]
		n, m := int(cfg&3)%3, int(cfg>>2&3)%3
		if n+m == 0 {
			m = 1
		}
		fl := &Fleet{Req: Request{Workers: 1 + int(opts)%3}}
		if cfg&0x10 != 0 {
			fl.HangTimeout = 2 * time.Second
		}
		if cfg&0x20 != 0 {
			fl.StallTimeout = 5 * time.Minute
		}
		plan, recs := reference(t)
		completed := map[string]bool{}
		for i, key := range plan.Keys()[:int(opts>>2)%4] {
			rec := recs[key]
			if i == 0 && opts&0x40 != 0 {
				rec.Events++ // fails Adopt: re-run, not trusted
			} else {
				completed[key] = true
			}
			fl.Completed = append(fl.Completed, rec)
		}
		h := newHarness(t, fl, n, m)
		steps := []time.Duration{time.Millisecond, 100 * time.Millisecond, time.Second, 2 * time.Second,
			2*time.Second + time.Nanosecond, breakerCooldown, time.Minute, 5 * time.Minute}
		for ; len(prog) >= 2 && h.err == nil; prog = prog[2:] {
			op, arg := prog[0]%10, prog[1]
			i := int(arg) % len(h.ws)
			w := h.ws[i]
			switch op {
			case 0: // hello: sometimes forged wide, sometimes disagreeing
				if w.opened && !w.helloed && !w.dead {
					cells := h.c.total
					if arg&0x40 != 0 {
						cells++
					}
					width := int(arg>>3) % 4
					if arg&0x80 != 0 {
						width = 1 << 20
					}
					h.hello(i, width, cells)
				}
			case 1: // a cell: from a dead incarnation too; sometimes its content or its digest tampered
				if len(w.owed) > 0 {
					switch arg >> 6 {
					case 1:
						h.cell(i, func(r *sweep.CellRecord) { r.Events++ })
					case 2:
						h.cell(i, func(r *sweep.CellRecord) { r.Digest = "0000000000000000" })
					default:
						h.cell(i, nil)
					}
				}
			case 2:
				if len(w.owed) > 0 && !w.dead {
					h.reject(i)
				}
			case 3:
				if w.closed && !w.done && !w.dead {
					h.done(i)
				}
			case 4:
				if w.opened && !w.dead {
					h.frame(i, w.gen, &SessionFrame{Err: "boom"})
				}
			case 5:
				if w.opened {
					h.lose(i, io.EOF)
				}
			case 6: // a straggler from the previous incarnation
				if w.gen > 1 {
					rec := recs[plan.Cells[int(arg>>2)%len(plan.Cells)].Key]
					h.frame(i, w.gen-1, &SessionFrame{Cell: &rec})
				}
			case 7:
				if w.dialing {
					var err error
					if arg&0x80 != 0 {
						err = errors.New("connection refused")
					}
					h.dialed(i, err)
				}
			case 8:
				h.advance(steps[int(arg)%len(steps)])
			case 9:
				if w.opened && !w.dead {
					h.frame(i, w.gen, &SessionFrame{})
				}
			}
		}
		h.verify(completed)
	})
}

// fleetNet is FuzzFleetShape's wire between the harness's workers and
// the coordinator. Its workers execute real cells, every frame they
// write crosses as bytes through their incarnation's chaos, and each
// worker's stream is a FIFO of deliveries at fake time.
type fleetNet struct {
	planFor PlanFunc
	mix     chaosMix // seed 0: no chaos
	flap    uint8    // bit i: worker i's every incarnation dies right after its Hello
	// Worker hangAt.w's first incarnation goes silent at its hangAt.k-th
	// frame; worker killAt.w's dies right after its killAt.k-th.
	hangAt, killAt netPoint
	queue          [][]delivery // per worker
}

// netPoint is worker w's k-th frame; k < 0 is no point.
type netPoint struct{ w, k int }

// delivery is bytes one incarnation wrote, due at the coordinator at at;
// end, when set, is the read error that follows them.
type delivery struct {
	gen  int
	at   time.Time
	data []byte
	end  error
}

// open starts a net worker's session as ServeSession does: plan the
// request, then say Hello.
func (h *harness) open(i int, req Request) {
	w := h.ws[i]
	plan, err := h.net.planFor(req)
	if err != nil {
		h.tb.Fatal(err)
	}
	w.plan, w.helloed = plan, true
	h.write(i, SessionFrame{Hello: &Hello{Cells: len(plan.Cells), Workers: h.width()}})
}

func (h *harness) width() int { return max(h.c.f.Req.Workers, 1) }

// running is how many cells worker i's pool is executing: the first
// pool-width keys it owes, unless its incarnation can no longer write.
func (h *harness) running(i int) int {
	w := h.ws[i]
	if w.plan == nil || w.gone || w.dead {
		return 0
	}
	return min(h.width(), len(w.owed))
}

// run completes the j-th of worker i's running cells as runSessionItem
// does and writes its frame.
func (h *harness) run(i, j int) {
	w := h.ws[i]
	key := w.owed[j]
	w.owed = slices.Delete(w.owed, j, j+1)
	cr, err := w.plan.RunCell(context.Background(), key, 0, 0, "", nil)
	if err != nil {
		h.write(i, SessionFrame{Reject: &Reject{Key: key, Reason: err.Error()}})
	} else {
		w.cells++
		rec := cr.Record()
		h.write(i, SessionFrame{Cell: &rec})
	}
	h.finishSession(i)
}

// finishSession sends Done once a closed worker's pool has drained.
func (h *harness) finishSession(i int) {
	w := h.ws[i]
	if w.closed && len(w.owed) == 0 && !w.done {
		w.done = true
		h.write(i, SessionFrame{Done: &SessionDone{Cells: w.cells, Util: sweep.UtilizationReport{Workers: h.width(), Jobs: w.cells}}})
	}
}

// write puts one frame on worker i's stream: encoded, through the
// incarnation's hang and kill points and its chaos, then queued behind
// whatever the stream still carries, with a chaos delay on top.
func (h *harness) write(i int, fr SessionFrame) {
	w, n := h.ws[i], h.net
	if w.gone {
		return
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fr); err != nil {
		h.tb.Fatal(err)
	}
	k := w.frames
	w.frames++
	at := func(p netPoint) bool { return w.gen == 1 && p == netPoint{i, k} }
	f := chaosFault{out: buf.Bytes()}
	if w.chaos != nil {
		f = n.mix.fault(w.chaos, f.out)
	}
	if f.hang || at(n.hangAt) {
		w.gone = true
		return
	}
	var end error
	switch {
	case f.sever:
		end = errors.New("chaos: worker killed")
	case at(n.killAt) || fr.Hello != nil && n.flap>>i&1 != 0:
		end = io.EOF
	}
	h.send(i, f.out, f.delay, end)
}

// send queues bytes on worker i's stream, due after every earlier
// delivery and delay from now; end also silences the incarnation.
func (h *harness) send(i int, data []byte, delay time.Duration, end error) {
	if len(data) == 0 && end == nil {
		return
	}
	q := &h.net.queue[i]
	due := h.now
	if len(*q) > 0 && (*q)[len(*q)-1].at.After(due) {
		due = (*q)[len(*q)-1].at
	}
	*q = append(*q, delivery{gen: h.ws[i].gen, at: due.Add(delay), data: data, end: end})
	h.ws[i].gone = h.ws[i].gone || end != nil
}

// take hands worker i's oldest delivery to the coordinator if it is due,
// each whole frame through recv, then the stream's end as a read error.
// A delivery from an incarnation the coordinator has already killed
// still lands: bytes in flight outlive the process that wrote them.
func (h *harness) take(i int) bool {
	q := &h.net.queue[i]
	if len(*q) == 0 || (*q)[0].at.After(h.now) {
		return false
	}
	d := (*q)[0]
	*q = (*q)[1:]
	r := io.Reader(bytes.NewReader(d.data))
	if d.end != nil {
		r = io.MultiReader(r, iotest.ErrReader(d.end))
	}
	for h.err == nil {
		var fr SessionFrame
		err := ReadFrame(r, &fr)
		if err == io.EOF && d.end == nil {
			break
		}
		if err != nil {
			h.step(h.c.recv(h.now, i, d.gen, nil, err))
			break
		}
		h.step(h.c.recv(h.now, i, d.gen, &fr, nil))
	}
	return true
}

// netHealthy makes one input of a well-behaved net: land a due
// delivery, finish a dial, complete a worker's oldest running cell — or,
// with nothing to do, let time pass to the next delivery or tick.
func (h *harness) netHealthy() {
	for i := range h.ws {
		if h.take(i) {
			return
		}
	}
	for i, w := range h.ws {
		if w.dialing {
			h.dialed(i, nil)
			return
		}
	}
	for i := range h.ws {
		if h.running(i) > 0 {
			h.run(i, 0)
			return
		}
	}
	next := h.now.Add(h.c.f.tickPeriod())
	for _, q := range h.net.queue {
		if len(q) > 0 && q[0].at.Before(next) {
			next = q[0].at
		}
	}
	h.advance(next.Sub(h.now))
}

// engaged names what a run went through: every event kind, the
// close-grace kill, a rejected and an accepted resume record, and how it
// ended — ok, or its typed failure.
func (h *harness) engaged() map[string]bool {
	e := map[string]bool{}
	for _, ev := range h.events {
		switch {
		case ev.Kind == "death" && ev.Detail == "no done frame within close grace":
			e["close-grace"] = true
		case ev.Kind == "adopt" && strings.Contains(ev.Detail, " rejected: "):
			e["rejected"] = true
		case ev.Kind == "adopt":
			e["adopted"] = ev.Cells > 0
		default:
			e[ev.Kind] = true
		}
	}
	var fd *FleetDownError
	var se *StallError
	e["ok"] = h.err == nil
	e["fleet-down"] = errors.As(h.err, &fd)
	e["stall"] = errors.As(h.err, &se)
	e["budget"] = h.err != nil && budgetErr.MatchString(h.err.Error())
	return e
}

// netGroups is the net's plan: the shard test matrix, plus a group with
// derived seeds and a fidelity axis, so a worker's device cache resets
// across projects and fidelities in whatever order its cells complete.
func netGroups() []sweep.Group {
	return []sweep.Group{testGroup(), {
		Spec: sweep.Spec{
			Name:       "h",
			Projects:   []string{"reference_switch", "reference_iotest"},
			Workloads:  []sweep.Workload{{Name: "bg", Flows: 8, Background: 6}},
			Fidelities: []string{"full", "hybrid"},
			WindowUS:   40,
		},
		Measure: sweep.GenericMeasure,
	}}
}

var (
	netOnce sync.Once
	netRecs map[string]sweep.CellRecord
	netErr  error
)

// netReference executes the net's plan in-process on one worker once,
// returning each cell's record by key.
func netReference(tb testing.TB) map[string]sweep.CellRecord {
	tb.Helper()
	netOnce.Do(func() {
		var rs *sweep.Results
		if rs, netErr = sweep.RunGroups(context.Background(), &sweep.Runner{Workers: 1}, netGroups(), ""); netErr != nil {
			return
		}
		netRecs = map[string]sweep.CellRecord{}
		for _, cr := range rs.Cells {
			netRecs[cr.Cell.Key] = cr.Record()
		}
	})
	if netErr != nil {
		tb.Fatal(netErr)
	}
	return netRecs
}

// shapeSeeds are FuzzFleetShape's fixed inputs, each with what it must
// engage. Header: shape (endpoints, connectors, pool width), watchdogs
// and resume cut, chaos seed, cell mask (two bytes), flap mask, hang
// point, kill point; then the program.
var shapeSeeds = []struct {
	engages string
	in      []byte
}{
	{"hang ok", []byte{0x02, 0x01, 0, 0, 0, 0, 0x02, 0}},
	{"duplicate hang reconnect close-grace ok", []byte{0x19, 0x01, 11, 0, 0, 0, 0, 0}},
	// A pool of 4 completing its cells out of order.
	{"ok", []byte{0x31, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0x18, 0, 0x10, 1, 0, 0, 0x08, 1, 0, 0, 0x18}},
	{"death reconnect ok", []byte{0x04, 0, 0, 0, 0, 0, 0, 0x03}},
	{"close-grace ok", []byte{0x01, 0, 0, 0x0f, 0, 0, 0x06, 0}},
	{"adopted rejected ok", []byte{0x01, 0x2c, 0, 0, 0, 0, 0, 0}},
	{"budget", []byte{0x04, 0, 0, 0x01, 0, 0x01, 0, 0}},
	{"fleet-down quarantine", []byte{0x04, 0, 0, 0, 0, 0x01, 0, 0}},
	{"stall", []byte{0x01, 0x02, 0, 0, 0, 0, 0x02, 0}},
	// A connector killed at each Hello, redialed until quarantined,
	// beside an endpoint that finishes the run.
	{"quarantine ok", []byte{0x05, 0, 0, 0, 0, 0x02, 0, 0, 3, 1, 1, 1,
		2, 32, 3, 1, 1, 1, 2, 32, 3, 1, 1, 1, 2, 32, 3, 1, 1, 1, 2, 32, 3, 1, 1, 1, 2, 32, 3, 1, 1, 1, 2, 32, 3, 1, 1, 1}},
}

// FuzzFleetShape is the fleet's equivalence net at fake time: the real
// coordinator over workers that execute real cells, every frame crossing
// as bytes through chaos. The input draws the fleet's shape — fixed
// endpoints, connectors, pool width — the watchdogs, a resume cut with
// an optionally tampered record, a chaos seed, a cell subset, workers
// that die at every Hello, hang and kill points, and then a program of
// completions (in any order up to the pool width), deliveries, clock
// advances, dial results, kills and hangs; healthy inputs finish the
// run. It must end with every digest equal to the in-process workers=1
// reference and every cell not adopted reaching onCell exactly once, or
// fail with a *FleetDownError, a *StallError or an exhausted requeue
// budget.
func FuzzFleetShape(f *testing.F) {
	netReference(f)
	for _, s := range shapeSeeds {
		f.Add(s.in)
	}
	f.Fuzz(fleetShape)
}

// fleetShape is one run of the net on input in.
func fleetShape(t *testing.T, in []byte) {
	hdr := make([]byte, 8)
	prog := in[copy(hdr, in):]
	n, m := int(hdr[0]&3)%3, int(hdr[0]>>2&3)%3
	if n+m == 0 {
		m = 1
	}
	fl := &Fleet{Req: Request{Workers: 1 + int(hdr[0]>>4&3)}}
	mask := uint16(hdr[3]) | uint16(hdr[4])<<8
	net := &fleetNet{planFor: func(req Request) (*sweep.Plan, error) {
		p, err := sweep.PlanGroups(netGroups(), req.Filter, req.Seed)
		if err != nil || mask&0xfff == 0 {
			return p, err
		}
		return p.Subset(func(key string) bool { i, _ := p.Lookup(key); return mask>>i&1 != 0 }), nil
	}}
	if hdr[2] != 0 {
		// Hotter than -chaos's mix, so a dozen cells see most faults.
		net.mix = chaosMix{seed: uint64(hdr[2]), drop: 0.05, dup: 0.08, corrupt: 0.03, truncate: 0.01,
			delay: 0.15, delayMax: 5 * time.Millisecond, kill: 0.02, hang: 0.01}
	}
	net.flap = hdr[5]
	point := func(b byte) netPoint { return netPoint{int(b>>4) % (n + m), int(b&15) - 1} }
	net.hangAt, net.killAt = point(hdr[6]), point(hdr[7])
	if hdr[1]&1 != 0 {
		fl.HangTimeout = 2 * time.Second
	}
	if hdr[1]&2 != 0 {
		fl.StallTimeout = 5 * time.Minute
	}
	// Without a watchdog a silent worker is waited on forever, by
	// design; a shape that can silence one gets the hang timeout.
	silent := net.mix.seed != 0 || net.hangAt.k >= 0
	if silent && fl.HangTimeout == 0 && fl.StallTimeout == 0 {
		fl.HangTimeout = 2 * time.Second
	}
	plan, err := net.planFor(fl.Req)
	if err != nil {
		t.Fatal(err)
	}
	recs := netReference(t)
	completed := map[string]bool{}
	for i, key := range plan.Keys()[:min(int(hdr[1]>>2&7), len(plan.Cells))] {
		rec := recs[key]
		if i == 0 && hdr[1]&0x20 != 0 {
			rec.Events++ // fails Adopt: re-run, not trusted
		} else {
			completed[key] = true
		}
		fl.Completed = append(fl.Completed, rec)
	}
	h := startHarness(t, fl, plan, recs, net, n, m)
	steps := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond,
		2*time.Second + time.Nanosecond, breakerCooldown, time.Minute, 5 * time.Minute}
	for ; len(prog) >= 2 && h.err == nil && !h.c.finished(); prog = prog[2:] {
		op, arg := prog[0]%6, prog[1]
		i := int(arg) % len(h.ws)
		w := h.ws[i]
		switch op {
		case 0: // complete one of the cells the worker's pool is running
			if r := h.running(i); r > 0 {
				h.run(i, int(arg>>3)%r)
			}
		case 1:
			h.take(i)
		case 2:
			h.advance(steps[int(arg>>3)%len(steps)])
		case 3:
			if w.dialing {
				var err error
				if arg&0x80 != 0 {
					err = errors.New("connection refused")
				}
				h.dialed(i, err)
			}
		case 4: // the worker dies: its stream ends after what it already wrote
			if w.opened && !w.gone && !w.dead {
				h.send(i, nil, 0, io.EOF)
			}
		case 5: // the worker hangs
			if w.opened && (fl.HangTimeout > 0 || fl.StallTimeout > 0) {
				w.gone = true
			}
		}
	}
	h.verify(completed)
	for _, s := range shapeSeeds {
		if bytes.Equal(s.in, in) {
			e := h.engaged()
			for _, want := range strings.Fields(s.engages) {
				if !e[want] {
					t.Errorf("seed %q did not engage %s; engaged %v, err %v", s.engages, want, e, h.err)
				}
			}
		}
	}
}
