package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// A foreign program drives one or two batching clock domains and the
// events around them from a byte stream, and logs everything a callback
// can observe: Now, every clock's Cycle, Peek, Pending and Executed. The
// same program run at SetBatch(1) — every edge its own heap event — is
// the reference; a batching clock, which ends its batch at the first
// event due before its next edge, must produce the same log. Edges, timer
// callbacks, lane completions and the top level all draw from the one
// stream, so two runs that execute in different orders diverge.
type foreignProgram struct {
	s        *Sim
	prog     []byte
	pc       int
	clocks   []*Clock
	workers  []*jobWorker
	timers   []*Timer
	lane     *Lane[int]
	laneLast Time
	events   int
	log      bytes.Buffer
}

const foreignTimers = 4

// jobWorker grinds through jobs of several cycles. The first and last
// cycle of a job are decisions — logged, and free to schedule events —
// and the cycles between them are pure, so it takes them as windows cut
// by Clock.Bound when the clock offers more than one edge.
type jobWorker struct {
	p    *foreignProgram
	id   int
	clk  *Clock
	jobs []int
	left int
}

func (w *jobWorker) Advance(n int) (int, bool) {
	if lim := w.left - 1; n > 1 && lim > 1 {
		if k := w.clk.Bound(lim); k > 1 {
			w.left -= k
			return k, true
		}
	}
	if w.left == 0 {
		if len(w.jobs) == 0 {
			w.p.observe(fmt.Sprintf("clock %d idle", w.id))
			return 1, false
		}
		w.left, w.jobs = w.jobs[0], w.jobs[1:]
		w.p.observe(fmt.Sprintf("clock %d starts %d", w.id, w.left))
		w.p.schedule()
	}
	if w.left--; w.left == 0 {
		w.p.observe(fmt.Sprintf("clock %d done", w.id))
		w.p.schedule()
	}
	return 1, true
}

func (p *foreignProgram) next() byte {
	if p.pc >= len(p.prog) {
		return 0
	}
	b := p.prog[p.pc]
	p.pc++
	return b
}

func (p *foreignProgram) observe(label string) {
	at, ok := p.s.Peek()
	fmt.Fprintf(&p.log, "%s: now %d exec %d pending %d peek %d %v cycles", label, p.s.Now(), p.s.Executed(), p.s.Pending(), at, ok)
	for _, c := range p.clocks {
		fmt.Fprintf(&p.log, " %d", c.Cycle())
	}
	p.log.WriteByte('\n')
}

// nextEdge is the first edge of clock i strictly after now: the key
// its re-arm takes, so an event scheduled there from a callback tests
// the sequence number the clock reserved.
func (p *foreignProgram) nextEdge(i int) Time {
	per := p.clocks[i].Period()
	return (p.s.Now()/per + 1) * per
}

// schedule is one action an edge or a callback may take; a zero byte
// (an exhausted program) does nothing.
func (p *foreignProgram) schedule() {
	now := p.s.Now()
	switch p.next() % 6 {
	case 1:
		p.timers[int(p.next())%foreignTimers].ScheduleAt(now + Time(p.next()%9))
	case 2:
		p.timers[int(p.next())%foreignTimers].ScheduleAt(p.nextEdge(int(p.next()) % len(p.clocks)))
	case 3:
		p.post()
	case 4:
		p.feed()
	case 5:
		p.events++
		id := p.events
		p.s.At(now, func() { p.observe(fmt.Sprintf("event %d", id)) })
	}
}

func (p *foreignProgram) post() {
	at := max(p.laneLast, p.s.Now()) + Time(p.next()%5)
	p.laneLast = at
	p.events++
	p.lane.Post(at, p.events)
}

func (p *foreignProgram) feed() {
	w := p.workers[int(p.next())%len(p.workers)]
	w.jobs = append(w.jobs, 1+int(p.next()%24))
	w.clk.Wake()
}

func (p *foreignProgram) fire(i int) {
	p.observe(fmt.Sprintf("timer %d", i))
	for n := p.next() % 4; n > 0; n-- {
		p.schedule()
	}
}

// runForeignProgram runs prog with every clock at the given batch.
func runForeignProgram(prog []byte, batch int) string {
	p := &foreignProgram{s: New(), prog: prog}
	nclk := 1 + int(p.next()%2)
	for i := 0; i < nclk; i++ {
		c := p.s.NewClock(fmt.Sprint("c", i), Time(2+p.next()%7))
		c.SetBatch(batch)
		w := &jobWorker{p: p, id: i, clk: c}
		p.clocks, p.workers = append(p.clocks, c), append(p.workers, w)
	}
	for _, w := range p.workers {
		w.clk.Register(w) // wakes the clock: its first edge sees an empty queue
	}
	for i := 0; i < foreignTimers; i++ {
		i := i
		p.timers = append(p.timers, p.s.NewTimer(func() { p.fire(i) }))
	}
	p.lane = NewLane(p.s, func(id int) {
		p.observe(fmt.Sprintf("lane %d", id))
		if p.next()%3 == 1 {
			p.schedule()
		}
	})
	deadline := Time(0)
	for p.pc < len(p.prog) {
		switch p.next() % 5 {
		case 0:
			p.schedule()
		case 1:
			p.feed()
		case 2, 3:
			// A chain of budgeted runs toward one deadline, with a floor.
			deadline += Time(p.next() % 40)
			budget, floor := uint64(p.next()%8), int(p.next()%4)
			for i := 0; i < 1<<12 && !p.s.Run(deadline, budget, floor); i++ {
			}
			p.observe("run")
		case 4:
			p.observe("top")
		}
	}
	// The exhausted program schedules nothing more, so this drains; the
	// bound is a backstop.
	for i := 0; i < 1<<12 && !p.s.Run(Forever, 1<<12, 0); i++ {
	}
	p.observe("end")
	for _, c := range p.clocks {
		fmt.Fprintf(&p.log, "%s ticks %d\n", c.name, c.Ticks())
	}
	return p.log.String()
}

func checkClockForeign(t *testing.T, prog []byte) {
	t.Helper()
	want := runForeignProgram(prog, 1)
	for _, batch := range []int{2, 3, DefaultBatch} {
		if got := runForeignProgram(prog, batch); got != want {
			t.Fatalf("batch %d diverges from the per-edge reference on program %x\n%s", batch, prog, firstDiff(got, want))
		}
	}
}

// foreignSeeds are the shapes where an event between a clock's edges
// has to end its batch in the reference's order. The interpreter reads
// the programs byte by byte as execution reaches them, so each is
// described by what it makes happen.
var foreignSeeds = [][]byte{
	{},
	// Clocks of 3 and 5 ps; clock 0 starts an 18-cycle job at 3 ps, and
	// timer 0, due right after that edge, ends the batch and re-arms
	// itself at 6 ps, clock 0's next edge. The edge was armed when the
	// batch ended, before the callback ran, so it runs ahead of the
	// timer at 6 ps; armed after the callback it falls behind.
	[]byte("12B80A2200800000001100"),
	// Clocks of 3 and 5 ps, both busy, with a timer between their edges:
	// neither clock may batch past the other's edge.
	{1, 1, 3, 1, 0, 23, 1, 1, 23, 0, 1, 1, 7, 2, 39, 0, 0, 4, 0, 1, 1, 2, 39, 0, 0, 4},
	// One 2 ps clock busy from 2 ps; timer 0, due at 5 ps, ends the
	// batch and schedules itself at exactly the next edge, 6 ps. Its
	// sequence number is above the one the edge was armed with, so the
	// edge runs first, as in the per-edge reference.
	[]byte("018072100000010012"),
}

// TestReentrantStepAndPanicMatchPerEdge: an event due between the
// edges of a busy clock whose callback re-enters Step, or panics, leaves
// the simulation going on as the per-edge reference does: the slot the
// callback left at the root is dropped by the next Step. The re-entrant
// Step is cut to one edge by the run's deadline: unbounded, a nested
// clock event runs a whole batch, in the reference engine as in this one.
func TestReentrantStepAndPanicMatchPerEdge(t *testing.T) {
	run := func(batch int) []string {
		s := New()
		clk := s.NewClock("dp", 10)
		clk.SetBatch(batch)
		var log []string
		note := func(what string) {
			at, ok := s.Peek()
			log = append(log, fmt.Sprintf("%s now %d exec %d pending %d peek %d %v", what, s.Now(), s.Executed(), s.Pending(), at, ok))
		}
		clk.RegisterFunc(func() bool { note("edge"); return true })
		s.At(15, func() {
			note("before nested")
			note(fmt.Sprint("nested ", s.Step()))
		})
		s.At(35, func() { panic("callback") })
		s.RunUntil(25)
		func() {
			defer func() { note(fmt.Sprint("recovered ", recover())) }()
			s.RunUntil(45)
		}()
		s.RunUntil(65)
		note("end")
		return log
	}
	want, got := run(1), run(DefaultBatch)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batched:\n%s\nper-edge:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestClockForeignMatchesPerEdge(t *testing.T) {
	for _, prog := range append(foreignSeeds, randomPrograms(1500, 200, 3)...) {
		checkClockForeign(t, prog)
	}
}

func FuzzClockForeign(f *testing.F) {
	for _, seed := range foreignSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkClockForeign(t, prog) })
}
