package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/netfpga/fleet"
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
		if rs, refErr = sweep.RunGroups(context.Background(), fleet.New(2), []sweep.Group{testGroup()}, ""); refErr != nil {
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
}

// newHarness builds a coordinator over plan for a fleet of n fixed
// endpoints ("e0", ...) followed by m connectors ("c0", ...); f carries
// the rest of the configuration.
func newHarness(tb testing.TB, f *Fleet, n, m int) *harness {
	tb.Helper()
	plan, recs := reference(tb)
	h := &harness{tb: tb, now: time.Unix(1e9, 0), recs: recs, names: map[string]int{}, cells: map[string]int{}}
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
		case actSend:
			switch {
			case a.cmd.Open != nil:
				w.opened = true
			case a.cmd.Assign != nil:
				if !w.helloed || w.closed || w.dead {
					h.tb.Errorf("Assign to worker %d (helloed %v, closed %v, dead %v)", a.w, w.helloed, w.closed, w.dead)
				}
				w.owed = append(w.owed, a.cmd.Assign.Keys...)
				w.assigns = append(w.assigns, len(a.cmd.Assign.Keys))
			case a.cmd.Close:
				w.closed = true
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
// at once, none outstanding twice across live workers, and no live
// worker holding more than its limit.
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
		if !errors.As(h.err, &se) && !errors.As(h.err, &fd) && !errors.Is(h.err, sweep.ErrDiverged) && !budgetErr.MatchString(h.err.Error()) {
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
	h := newHarness(t, &Fleet{Req: Request{Workers: 4}, CloseGrace: time.Second}, 2, 0)
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
	if err := h.advance(time.Second); err != nil || h.c.finished() {
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
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}}, 0, 1)
	h.dialed(0, nil)
	h.hello(0, 1, h.c.total)
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
	// hello is ignored, its cell adopted.
	rec := h.recs[late]
	h.frame(0, 1, &SessionFrame{Hello: &Hello{Cells: h.c.total, Workers: 1}})
	if err := h.frame(0, 1, &SessionFrame{Cell: &rec}); err != nil {
		t.Fatal(err)
	}
	if !h.c.m.Filled(late) || h.cells[late] != 1 {
		t.Fatalf("late cell from generation 1: filled %v, onCell %d", h.c.m.Filled(late), h.cells[late])
	}
	if ev := h.events[len(h.events)-1]; ev.Kind != "duplicate" || ev.Detail != late+" (late arrival)" {
		t.Errorf("last event %+v, want a late-arrival duplicate", ev)
	}
	if h.c.workers[0].helloed {
		t.Error("generation 1's hello admitted generation 2")
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
	h := newHarness(t, &Fleet{Req: Request{Workers: 1}, Backoff: Backoff{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond}}, 1, 1)
	const c0 = 1
	redial := func() {
		t.Helper()
		for i := 0; !h.ws[c0].dialing; i++ {
			if i == 10 {
				t.Fatal("connector not redialed")
			}
			h.advance(10 * time.Millisecond)
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

// TestBackoffDelaySchedule pins the redial schedule: exponential from
// Base to Max plus a jitter in [0, delay/2] derived from (name, attempt)
// alone — the same on every run and every machine.
func TestBackoffDelaySchedule(t *testing.T) {
	for _, tc := range []struct {
		b    Backoff
		name string
		want []time.Duration
	}{
		{Backoff{}, "proc:0", []time.Duration{347838908, 592024190, 1071443438, 2662435904, 4681894279, 10934034085, 12935254097, 10004532116}},
		{Backoff{}, "tcp:127.0.0.1:9090", []time.Duration{271553099, 550038023, 1480970848, 2747592559, 4714894802, 10588671425, 10463285158, 12927071695}},
		{Backoff{Base: 50 * time.Millisecond, Max: time.Second}, "proc:0", []time.Duration{72557639, 140213366, 259899575, 486694843, 892017904, 1282755361, 1334795921, 1257270878}},
	} {
		for i, want := range tc.want {
			if got := tc.b.Delay(tc.name, i+1); got != want {
				t.Errorf("%+v.Delay(%q, %d) = %v, want %v", tc.b, tc.name, i+1, got, want)
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
		fl := &Fleet{Req: Request{Workers: 1 + int(opts)%3}, Backoff: Backoff{Base: 100 * time.Millisecond, Max: time.Second}}
		if cfg&0x10 != 0 {
			fl.HangTimeout = 2 * time.Second
		}
		if cfg&0x20 != 0 {
			fl.StallTimeout = 5 * time.Minute
		}
		if cfg&0x40 != 0 {
			fl.CloseGrace = time.Second
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
			case 1: // a cell: from a dead incarnation too; sometimes tampered or forged
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
