package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// vecWorker is a windowing Component modelling the shape real batching
// datapaths have: it grinds through jobs of several cycles each, can
// absorb any number of mid-job cycles in one Advance, but must make
// job-boundary decisions (finish, fetch next, go idle) on an exact
// per-edge cycle because those decisions are externally observable.
type vecWorker struct {
	s   *Sim
	clk *Clock
	tr  *trace

	jobs      []int // remaining cycle counts of queued jobs
	remaining int   // cycles left of the current job (0 = between jobs)
	batched   uint64
	widest    int // the longest window taken
}

func (w *vecWorker) step() bool {
	if w.remaining == 0 {
		if len(w.jobs) == 0 {
			w.tr.hit("idle", w.s)
			return false
		}
		w.remaining = w.jobs[0]
		w.jobs = w.jobs[1:]
		w.tr.hit(fmt.Sprintf("start%d@c%d", w.remaining, w.clk.Cycle()), w.s)
	}
	w.remaining--
	if w.remaining == 0 {
		w.tr.hit(fmt.Sprintf("done@c%d", w.clk.Cycle()), w.s)
	}
	return true
}

// Advance allows a window only strictly inside a job — the final cycle
// (completion) and the fetch cycle are decisions — and, as the contract
// demands, cuts it with the clock's bound before taking it. The batch
// budget n only says whether a window is offered: one may run past it.
func (w *vecWorker) Advance(n int) (int, bool) {
	if lim := w.remaining - 1; n > 1 && lim > 1 {
		if k := w.clk.Bound(lim); k > 1 {
			w.remaining -= k
			w.batched += uint64(k)
			w.widest = max(w.widest, k)
			return k, true
		}
	}
	return 1, w.step()
}

// feed enqueues a job and wakes the worker, as a foreign event would.
func (w *vecWorker) feed(cycles int) {
	w.jobs = append(w.jobs, cycles)
	w.clk.Wake()
}

// plainComp answers every Advance with one edge of the same worker: the
// per-edge equivalence reference.
type plainComp struct{ w *vecWorker }

func (p plainComp) Advance(int) (int, bool) { return 1, p.w.step() }

// vecScenario runs the worker through busy/idle stretches with timers
// landing mid-window and uneven run deadlines. batched selects whether
// the clock drives the windowing worker or its per-edge wrapper.
func vecScenario(t *testing.T, batched bool, clockBatch int, run func(s *Sim)) ([]string, uint64, uint64, *vecWorker) {
	t.Helper()
	s := New()
	clk := s.NewClock("dp", 3*Nanosecond)
	clk.SetBatch(clockBatch)
	w := &vecWorker{s: s, clk: clk, tr: &trace{}, jobs: []int{17, 1, 2, 40, 3}}
	if batched {
		clk.Register(w)
	} else {
		clk.Register(plainComp{w})
	}

	// A repeating 11 ns timer that lands inside would-be windows and
	// occasionally refeeds the idle worker.
	n := 0
	var rep *Timer
	rep = s.NewTimer(func() {
		w.tr.hit("t", s)
		n++
		if n == 6 || n == 13 {
			w.feed(25)
		}
		if n < 30 {
			rep.ScheduleAfter(11 * Nanosecond)
		}
	})
	rep.ScheduleAfter(11 * Nanosecond)

	run(s)
	return w.tr.events, s.Executed(), clk.Ticks(), w
}

// TestBatchComponentEquivalence checks that vectorized windows are
// trace-identical to per-edge execution — same callback interleaving,
// same times, same Executed counts, same total edges — across clock
// batch sizes and awkward run deadlines, while actually batching. A
// window is not cut at the batch budget, so the small batches take
// windows longer than themselves; a batch of 1 offers none.
func TestBatchComponentEquivalence(t *testing.T) {
	runner := func(s *Sim) {
		for _, d := range []Time{10 * Nanosecond, 1, 29 * Nanosecond, 400 * Nanosecond} {
			s.RunFor(d)
		}
		s.Drain(0)
	}
	ref, refExec, refTicks, _ := vecScenario(t, false, DefaultBatch, runner)
	if len(ref) == 0 {
		t.Fatal("scenario produced no events")
	}
	if _, _, _, w := vecScenario(t, true, 1, runner); w.batched != 0 {
		t.Errorf("batch=1 offered windows: %d cycles absorbed", w.batched)
	}
	for _, k := range []int{2, 3, DefaultBatch, 1000} {
		got, exec, ticks, w := vecScenario(t, true, k, runner)
		if exec != refExec {
			t.Errorf("batch=%d executed %d events, want %d", k, exec, refExec)
		}
		if ticks != refTicks {
			t.Errorf("batch=%d ran %d edges, want %d", k, ticks, refTicks)
		}
		if w.batched == 0 {
			t.Errorf("batch=%d executed no vectorized cycles; windows never opened", k)
		}
		if k < 10 && w.widest <= k {
			t.Errorf("batch=%d: widest window %d, want one past the batch budget", k, w.widest)
		}
		if !reflect.DeepEqual(got, ref) {
			for i := range ref {
				if i >= len(got) || got[i] != ref[i] {
					t.Fatalf("batch=%d first divergence at %d: got %q want %q",
						k, i, got[min(i, len(got)-1):min(i+3, len(got))], ref[i:min(i+3, len(ref))])
				}
			}
			t.Errorf("batch=%d trace diverges (length %d vs %d)", k, len(got), len(ref))
		}
	}
}

// TestBatchComponentDrainLimit checks that event fences land vectorized
// execution on exactly the same event as per-edge execution.
func TestBatchComponentDrainLimit(t *testing.T) {
	for _, limit := range []uint64{1, 5, 23, 64, 200} {
		runner := func(s *Sim) { s.Drain(limit) }
		ref, refExec, _, _ := vecScenario(t, false, DefaultBatch, runner)
		got, exec, _, _ := vecScenario(t, true, DefaultBatch, runner)
		if exec != refExec {
			t.Errorf("Drain(%d): vectorized executed %d events, want %d", limit, exec, refExec)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("Drain(%d): vectorized trace diverges", limit)
		}
	}
}

// TestBatchComponentSecondRegistrationDisables checks that a second
// component on the domain disables vectorized windows (ordering between
// components inside an edge would otherwise be unobservable).
func TestBatchComponentSecondRegistrationDisables(t *testing.T) {
	s := New()
	clk := s.NewClock("dp", 2*Nanosecond)
	w := &vecWorker{s: s, clk: clk, tr: &trace{}, jobs: []int{50}}
	clk.Register(w)
	clk.RegisterFunc(func() bool { return false })
	s.Drain(0)
	if w.batched != 0 {
		t.Fatalf("multi-component domain executed %d vectorized cycles, want 0", w.batched)
	}
	if w.remaining != 0 || len(w.jobs) != 0 {
		t.Fatalf("worker did not finish: remaining=%d jobs=%d", w.remaining, len(w.jobs))
	}
}

// TestRunBoundsFenceBatching leaves a lone busy domain with nothing else
// in the heap, so only the run's own bounds can stop it: an event budget
// must land on exactly that many edges and a deadline on the last edge
// inside it, with the next edge left pending — whether the component
// takes one edge per call (Sim.inline does the stopping) or long windows
// (Clock.Bound does).
func TestRunBoundsFenceBatching(t *testing.T) {
	for _, windowing := range []bool{false, true} {
		s := New()
		clk := s.NewClock("dp", 2*Nanosecond)
		clk.SetBatch(1000)
		w := &vecWorker{s: s, clk: clk, tr: &trace{}, jobs: []int{500}}
		if windowing {
			clk.Register(w)
		} else {
			clk.Register(plainComp{w})
		}
		if s.Run(Microsecond, 7, 0) {
			t.Fatalf("windowing=%v: a budget of 7 events did not stop the run", windowing)
		}
		if s.Executed() != 7 || clk.Ticks() != 7 || s.Now() != 14*Nanosecond {
			t.Fatalf("windowing=%v: budget of 7 ran %d events, %d edges, now %v",
				windowing, s.Executed(), clk.Ticks(), s.Now())
		}
		s.RunUntil(41 * Nanosecond)
		// Edges at 2, 4, ..., 40 ns: exactly 20 inside the deadline.
		if clk.Ticks() != 20 || s.Executed() != 20 || s.Now() != 41*Nanosecond {
			t.Fatalf("windowing=%v: deadline run reached %d edges, %d events, now %v",
				windowing, clk.Ticks(), s.Executed(), s.Now())
		}
		if at, ok := s.Peek(); !ok || at != 42*Nanosecond {
			t.Fatalf("windowing=%v: next edge pending at %v, want 42ns", windowing, at)
		}
		if windowing && w.batched == 0 {
			t.Fatal("the windowing worker never took a window")
		}
	}
}
