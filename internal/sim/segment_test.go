package sim

import (
	"reflect"
	"testing"
)

// segmentBudgets are the per-call event budgets the equivalence tests
// sweep: pathological (1), awkward primes, and budgets larger than the
// whole scenario (effectively one segment).
var segmentBudgets = []uint64{1, 2, 5, 17, 64, 1 << 20}

// runSegmented drives the scenario with a chain of Run calls of at most
// budget events each, toward the same deadlines as the
// reference RunFor runner, then drains the same way.
func runSegmented(budget uint64) func(s *Sim) {
	return func(s *Sim) {
		deadline := Time(0)
		for _, d := range []Time{10 * Nanosecond, 1, 13 * Nanosecond,
			50 * Nanosecond, 500 * Nanosecond} {
			deadline += d
			for !s.Run(deadline, budget, 0) {
			}
		}
		s.Drain(0)
	}
}

// TestRunSegmentEquivalence is the determinism bedrock of the fleet's
// segment scheduler: for every (segment budget x clock batch)
// combination, a chain of budgeted Run calls produces exactly the trace,
// executed count and final time of unsegmented RunFor execution.
func TestRunSegmentEquivalence(t *testing.T) {
	reference := func(s *Sim) {
		for _, d := range []Time{10 * Nanosecond, 1, 13 * Nanosecond,
			50 * Nanosecond, 500 * Nanosecond} {
			s.RunFor(d)
		}
		s.Drain(0)
	}
	ref, refExec := coprimeScenario(t, 1, reference)
	if len(ref) == 0 {
		t.Fatal("scenario produced no events")
	}
	for _, batch := range batchSizes {
		for _, budget := range segmentBudgets {
			got, exec := coprimeScenario(t, batch, runSegmented(budget))
			if exec != refExec {
				t.Errorf("batch=%d budget=%d executed %d events, want %d",
					batch, budget, exec, refExec)
			}
			if !reflect.DeepEqual(got, ref) {
				for i := range ref {
					if i >= len(got) || got[i] != ref[i] {
						t.Fatalf("batch=%d budget=%d: first divergence at %d: got %q want %q",
							batch, budget, i, got[i:min(i+3, len(got))], ref[i:min(i+3, len(ref))])
					}
				}
				t.Fatalf("batch=%d budget=%d trace diverges", batch, budget)
			}
		}
	}
}

// TestRunSegmentPauseSemantics pins the contract around a pause: Now
// never advances to the deadline while the window is unfinished, a
// budget that expires exactly as the queue goes quiet still reports
// unfinished without advancing, and the resuming call completes the
// window.
func TestRunSegmentPauseSemantics(t *testing.T) {
	s := New()
	fired := 0
	for i := 1; i <= 3; i++ {
		s.At(Time(i)*Nanosecond, func() { fired++ })
	}

	// Budget smaller than the pending work: pause at the last executed
	// event's time.
	if s.Run(10*Nanosecond, 2, 0) {
		t.Fatal("segment reported done with events pending")
	}
	if fired != 2 || s.Now() != 2*Nanosecond {
		t.Fatalf("after pause: fired=%d now=%v", fired, s.Now())
	}

	// Budget expiring exactly on the final event: still unfinished, no
	// deadline advance — the caller decides whether residual time runs.
	if s.Run(10*Nanosecond, 1, 0) {
		t.Fatal("segment reported done on the exact budget boundary")
	}
	if fired != 3 || s.Now() != 3*Nanosecond {
		t.Fatalf("boundary pause: fired=%d now=%v", fired, s.Now())
	}

	// Resume with a fresh budget: nothing pending, the window completes
	// and time advances to the deadline.
	if !s.Run(10*Nanosecond, 100, 0) {
		t.Fatal("resume did not complete the quiet window")
	}
	if s.Now() != 10*Nanosecond {
		t.Fatalf("completion did not advance to deadline: now=%v", s.Now())
	}

	// A completed window is idempotent.
	if !s.Run(10*Nanosecond, 1, 0) {
		t.Fatal("re-running a completed window reported unfinished")
	}
}

// TestRunSegmentUnbudgeted: eventBudget 0 means a single call behaves
// exactly like RunUntil.
func TestRunSegmentUnbudgeted(t *testing.T) {
	a, b := New(), New()
	mk := func(s *Sim) *int {
		n := new(int)
		var rep *Timer
		rep = s.NewTimer(func() {
			*n++
			if *n < 20 {
				rep.ScheduleAfter(3 * Nanosecond)
			}
		})
		rep.ScheduleAfter(3 * Nanosecond)
		return n
	}
	na, nb := mk(a), mk(b)
	a.RunUntil(31 * Nanosecond)
	if !b.Run(31*Nanosecond, 0, 0) {
		t.Fatal("unbudgeted segment did not complete")
	}
	if *na != *nb || a.Now() != b.Now() || a.Executed() != b.Executed() {
		t.Fatalf("Run(_, 0, 0) diverges from RunUntil: %d/%d events, now %v/%v",
			*na, *nb, a.Now(), b.Now())
	}
}

// TestRunDrainFloorAndExactBudget pins the two ways a run to Forever
// differs from a run to a deadline: there is no residual time, so a
// budget spent exactly as the work runs out still reports the work done
// (and Now stays at the last event), and floor perpetual timers count as
// "nothing left".
func TestRunDrainFloorAndExactBudget(t *testing.T) {
	s := New()
	var every *Timer
	polls := 0
	every = s.NewTimer(func() {
		polls++
		every.ScheduleAfter(4 * Nanosecond)
	})
	every.ScheduleAfter(4 * Nanosecond)
	fired := 0
	for i := 1; i <= 3; i++ {
		s.At(Time(3*i)*Nanosecond, func() { fired++ })
	}

	// Events at 3, 4, 6, 8, 9 ns: the fifth is the last one-shot. A
	// budget of exactly 5 drains to the floor and says so.
	if !s.Run(Forever, 5, 1) {
		t.Fatal("drain to the floor on the exact budget reported unfinished")
	}
	if fired != 3 || polls != 2 || s.Now() != 9*Nanosecond || s.Pending() != 1 {
		t.Fatalf("after drain: fired=%d polls=%d now=%v pending=%d", fired, polls, s.Now(), s.Pending())
	}
	// At the floor nothing runs, whatever the budget.
	if !s.Run(Forever, 0, 1) || polls != 2 {
		t.Fatalf("run at the floor executed events: polls=%d", polls)
	}
	// Below the floor the perpetual timer is work like any other, and
	// only the budget ends it.
	if s.Run(Forever, 3, 0) {
		t.Fatal("a perpetual timer drained")
	}
	if polls != 5 || s.Now() != 20*Nanosecond {
		t.Fatalf("budgeted run: polls=%d now=%v", polls, s.Now())
	}
	if s.horizon != Forever || s.fence != noFence {
		t.Fatalf("run left its bounds in force: horizon=%v fence=%d", s.horizon, s.fence)
	}
}
