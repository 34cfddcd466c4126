package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// queue is the event-queue surface the production core and the oracle
// both expose to a script.
type queue interface {
	Now() Time
	Executed() uint64
	Pending() int
	Peek() (Time, bool)
	Step() bool
	timer(fn func()) scriptTimer
	oneShot(at Time, fn func())
	// post completes fn at time at on serialising resource lane: a Lane
	// in production, one one-shot per completion in the oracle.
	post(lane int, at Time, fn func())
}

type scriptTimer interface {
	ScheduleAt(Time)
	Stop() bool
	Pending() bool
}

const scriptLanes = 2

type prodQueue struct {
	*Sim
	lanes [scriptLanes]*Lane[func()]
}

func newProdQueue() *prodQueue {
	q := &prodQueue{Sim: New()}
	for i := range q.lanes {
		q.lanes[i] = NewLane(q.Sim, func(fn func()) { fn() })
	}
	return q
}

func (q *prodQueue) timer(fn func()) scriptTimer       { return q.NewTimer(fn) }
func (q *prodQueue) oneShot(at Time, fn func())        { q.At(at, fn) }
func (q *prodQueue) post(lane int, at Time, fn func()) { q.lanes[lane].Post(at, fn) }

// atQueue is the production core with every lane post replaced by the
// one-shot it must be indistinguishable from.
type atQueue struct{ *Sim }

func (q atQueue) timer(fn func()) scriptTimer    { return q.NewTimer(fn) }
func (q atQueue) oneShot(at Time, fn func())     { q.At(at, fn) }
func (q atQueue) post(_ int, at Time, fn func()) { q.At(at, fn) }

type refQueue struct{ *refSim }

func (q refQueue) timer(fn func()) scriptTimer    { return q.NewTimer(fn) }
func (q refQueue) oneShot(at Time, fn func())     { q.At(at, fn) }
func (q refQueue) post(_ int, at Time, fn func()) { q.At(at, fn) }

// script interprets a byte program against a queue and logs everything
// observable: firing order, Now, Executed, and the answers Peek, Pending,
// Timer.Pending and Stop give at top level and from inside callbacks.
// Callbacks draw their behaviour from the same byte stream, so two
// queues that fire in the same order run the same program, and two that
// do not produce different logs.
type script struct {
	q        queue
	prog     []byte
	pc       int
	timers   []scriptTimer
	laneLast [scriptLanes]Time
	events   int // ids for one-shots and lane completions
	depth    int // nested Step calls in progress
	log      bytes.Buffer
}

// scriptPanic is what a scripted callback panics with; any other panic
// is a bug in the core and is re-raised.
type scriptPanic struct{}

const scriptTimers = 6

func runScript(q queue, prog []byte) string {
	s := &script{q: q, prog: prog}
	for i := 0; i < scriptTimers; i++ {
		i := i
		s.timers = append(s.timers, q.timer(func() { s.fire(i) }))
	}
	for s.pc < len(s.prog) {
		switch s.next() % 6 {
		case 0, 1:
			s.timers[s.pick()].ScheduleAt(s.soon())
		case 2:
			j := s.pick()
			fmt.Fprintf(&s.log, "stop %d %v\n", j, s.timers[j].Stop())
		case 3:
			s.step()
		case 4:
			s.observe()
		case 5:
			s.post()
		}
	}
	// Exhausted programs read zeros, which make every callback a no-op,
	// so the drain terminates; the bound is only a backstop.
	for i := 0; i < 1<<16 && s.step(); i++ {
	}
	s.observe()
	return s.log.String()
}

func (s *script) next() byte {
	if s.pc >= len(s.prog) {
		return 0
	}
	b := s.prog[s.pc]
	s.pc++
	return b
}

func (s *script) pick() int { return int(s.next()) % scriptTimers }

// soon returns a time at or shortly after now; small deltas make
// equal-timestamp ties the common case.
func (s *script) soon() Time { return s.q.Now() + Time(s.next()%6) }

func (s *script) observe() {
	at, ok := s.q.Peek()
	fmt.Fprintf(&s.log, "now %d exec %d pending %d peek %d %v timers ", s.q.Now(), s.q.Executed(), s.q.Pending(), at, ok)
	for _, t := range s.timers {
		if t.Pending() {
			s.log.WriteByte('1')
		} else {
			s.log.WriteByte('0')
		}
	}
	s.log.WriteByte('\n')
}

// step runs one event, absorbing a scripted panic the way a recovering
// caller would.
func (s *script) step() (ran bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, scripted := r.(scriptPanic); !scripted {
				panic(r)
			}
			s.depth = 0
			s.log.WriteString("panicked\n")
			ran = true
		}
	}()
	return s.q.Step()
}

func (s *script) post() {
	lane := int(s.next()) % scriptLanes
	at := max(s.laneLast[lane], s.q.Now()) + Time(s.next()%4)
	s.laneLast[lane] = at
	s.events++
	id := s.events
	s.q.post(lane, at, func() {
		fmt.Fprintf(&s.log, "lane %d event %d\n", lane, id)
		s.observe()
		if s.next()%4 == 1 {
			s.post() // a completion that issues the next access
		}
	})
}

func (s *script) fire(self int) {
	fmt.Fprintf(&s.log, "fire %d\n", self)
	s.observe()
	for n := s.next() % 4; n > 0; n-- {
		switch s.next() % 8 {
		case 0:
			s.timers[self].ScheduleAt(s.soon())
		case 1:
			s.timers[s.pick()].ScheduleAt(s.soon())
		case 2:
			j := s.pick()
			fmt.Fprintf(&s.log, "stop %d %v\n", j, s.timers[j].Stop())
		case 3:
			s.observe()
		case 4:
			if s.depth < 3 {
				s.depth++
				ran := s.q.Step()
				s.depth--
				fmt.Fprintf(&s.log, "nested %v\n", ran)
				s.observe()
			}
		case 5:
			panic(scriptPanic{})
		case 6:
			s.post()
		case 7:
			s.events++
			id := s.events
			s.q.oneShot(s.soon(), func() { fmt.Fprintf(&s.log, "event %d\n", id) })
		}
	}
}

// checkEventCore runs prog on the production core and on the pointer-heap
// oracle and requires identical logs.
func checkEventCore(t *testing.T, prog []byte) {
	t.Helper()
	got, want := runScript(newProdQueue(), prog), runScript(refQueue{&refSim{}}, prog)
	if got != want {
		t.Fatalf("event core diverges from the oracle on program %x\n%s", prog, firstDiff(got, want))
	}
}

// checkLanes runs prog on the production core twice, with lanes and with
// one Sim.At per completion, and requires identical logs.
func checkLanes(t *testing.T, prog []byte) {
	t.Helper()
	got, want := runScript(newProdQueue(), prog), runScript(atQueue{New()}, prog)
	if got != want {
		t.Fatalf("lanes diverge from one-shots on program %x\n%s", prog, firstDiff(got, want))
	}
}

func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("logs differ in length: got %d lines, want %d", len(g), len(w))
}

// scriptSeeds are hand-written programs for the cases the random ones
// reach only by luck; they seed both fuzz targets.
var scriptSeeds = [][]byte{
	{},
	// Timer 0 armed, fired; its callback re-arms itself at +0 twice.
	{0, 0, 0, 3, 2, 0, 0, 0, 0, 3, 3},
	// Re-arm another timer, stop a third, observe, all from a callback.
	{0, 0, 1, 0, 1, 1, 0, 2, 2, 3, 3, 1, 2, 2, 1, 3, 3, 3},
	// A callback that re-enters Step, then re-arms itself.
	{0, 0, 0, 0, 1, 0, 3, 2, 4, 0, 2, 3, 3},
	// A callback that panics; the timer is re-armed afterwards.
	{0, 0, 0, 0, 1, 1, 3, 1, 5, 4, 0, 0, 2, 3, 3},
	// A nested Step whose callback panics through the outer one.
	{0, 0, 0, 0, 1, 0, 3, 1, 4, 1, 5, 4, 3},
	// Lane posts at equal timestamps around foreign timers.
	{5, 0, 0, 0, 2, 0, 5, 0, 0, 5, 1, 0, 0, 3, 0, 5, 0, 0, 3, 3, 3, 3, 3},
	// A lane completion that posts to its own lane.
	{5, 0, 1, 5, 0, 0, 3, 1, 0, 1, 3, 1, 0, 0, 3, 3},
}

func randomPrograms(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 1+rng.Intn(size))
		rng.Read(out[i])
	}
	return out
}

func TestEventCoreMatchesOracle(t *testing.T) {
	for _, prog := range append(scriptSeeds, randomPrograms(3000, 400, 1)...) {
		checkEventCore(t, prog)
	}
}

func TestLanesMatchOneShots(t *testing.T) {
	for _, prog := range append(scriptSeeds, randomPrograms(3000, 400, 2)...) {
		checkLanes(t, prog)
	}
}

func FuzzEventCore(f *testing.F) {
	for _, seed := range scriptSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkEventCore(t, prog) })
}

func FuzzLane(f *testing.F) {
	for _, seed := range scriptSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkLanes(t, prog) })
}

func TestLaneOutOfOrderPostPanics(t *testing.T) {
	s := New()
	l := NewLane(s, func(int) {})
	l.Post(100, 1)
	l.Post(100, 2) // equal is in order
	defer func() {
		if recover() == nil {
			t.Fatal("a post earlier than the previous one must panic")
		}
	}()
	l.Post(99, 3)
}

// TestLaneStaysBounded pushes a million completions through a lane that
// never drains — the continuous-DMA shape — and requires the FIFO to hold
// blocks for the backlog, not the history, and to stop allocating once
// it has them.
func TestLaneStaysBounded(t *testing.T) {
	s := New()
	var fired int
	l := NewLane(s, func(int) { fired++ })
	const backlog = 100
	for i := 0; i < backlog; i++ {
		l.Post(Time(i), i)
	}
	i := backlog
	turn := func() {
		s.Step()
		l.Post(Time(i), i)
		i++
	}
	for i < 500_000 {
		turn()
	}
	if allocs := testing.AllocsPerRun(500_000, turn); allocs != 0 {
		t.Fatalf("a steady backlog allocates %.3f times per completion", allocs)
	}
	blocks := 0
	for b := l.head; b != nil; b = b.next {
		blocks++
	}
	if l.Len() != backlog || blocks > backlog/laneBlockLen+2 {
		t.Fatalf("%d blocks hold a backlog of %d (want %d)", blocks, l.Len(), backlog)
	}
	s.Drain(0)
	if fired != i || s.Pending() != 0 {
		t.Fatalf("fired %d of %d, %d still pending", fired, i, s.Pending())
	}
}

// TestLaneEachVisitsPending: Each visits exactly the completions that
// have not fired, in order, across block boundaries.
func TestLaneEachVisitsPending(t *testing.T) {
	s := New()
	l := NewLane(s, func(int) {})
	const posted, fired = 3*laneBlockLen + 5, laneBlockLen + 7
	for i := 0; i < posted; i++ {
		l.Post(Time(i), i)
	}
	for i := 0; i < fired; i++ {
		s.Step()
	}
	want := fired
	l.Each(func(v int) {
		if v != want {
			t.Fatalf("Each visited %d, want %d", v, want)
		}
		want++
	})
	if want != posted {
		t.Fatalf("Each stopped at %d of %d", want, posted)
	}
}
