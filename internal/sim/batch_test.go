package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// batchSizes are the edge budgets every equivalence test sweeps,
// including fully unbatched (1) and budgets far larger than any busy
// stretch in the scenarios.
var batchSizes = []int{1, 2, 3, 7, DefaultBatch, 1000}

// trace records every observable execution point of a scenario: which
// callback ran, at what simulated time, and at which Executed count.
// Identical traces mean identical event ordering as any component or
// timer callback could observe it.
type trace struct {
	events []string
}

func (tr *trace) hit(label string, s *Sim) {
	tr.events = append(tr.events, fmt.Sprintf("%s@%d#%d", label, s.Now(), s.Executed()))
}

// coprimeScenario drives two clock domains with coprime periods (3 ns and
// 7 ns) whose components go busy and idle in interleaved stretches, plus
// one-shot and re-arming timers that land mid-batch, including a timer
// that wakes an idle domain. It returns the full execution trace and the
// final executed count.
func coprimeScenario(t *testing.T, batch int, run func(s *Sim)) ([]string, uint64) {
	t.Helper()
	s := New()
	fast := s.NewClock("fast", 3*Nanosecond)
	slow := s.NewClock("slow", 7*Nanosecond)
	fast.SetBatch(batch)
	slow.SetBatch(batch)
	tr := &trace{}

	// The fast domain runs busy stretches of varying length, re-armed by
	// a timer after each idle gap.
	fastBusy := 25
	fast.RegisterFunc(func() bool {
		tr.hit("f", s)
		if fastBusy > 0 {
			fastBusy--
			return true
		}
		return false
	})
	// The slow domain is busy while it holds tokens, fed mid-simulation.
	slowTokens := 11
	slow.RegisterFunc(func() bool {
		tr.hit("s", s)
		if slowTokens > 0 {
			slowTokens--
			return true
		}
		return false
	})

	// Timers landing mid-batch: a 5 ns repeating timer (coprime with both
	// periods) that sometimes refeeds the domains, and a one-shot that
	// lands between edges.
	n := 0
	var rep *Timer
	rep = s.NewTimer(func() {
		tr.hit("t", s)
		n++
		if n == 4 {
			slowTokens += 9
			slow.Wake()
		}
		if n == 9 {
			fastBusy += 13
			fast.Wake()
		}
		if n < 40 {
			rep.ScheduleAfter(5 * Nanosecond)
		}
	})
	rep.ScheduleAfter(5 * Nanosecond)
	s.At(100*Nanosecond+1, func() { tr.hit("odd", s) })

	run(s)
	return tr.events, s.Executed()
}

// TestBatchEquivalenceRunFor checks that every batch size yields an
// identical trace and executed count under RunFor stepping, including
// deadlines that land mid-busy-stretch.
func TestBatchEquivalenceRunFor(t *testing.T) {
	runner := func(s *Sim) {
		// Uneven windows so deadlines cut batches at awkward points.
		for _, d := range []Time{10 * Nanosecond, 1, 13 * Nanosecond,
			50 * Nanosecond, 500 * Nanosecond} {
			s.RunFor(d)
		}
		s.Drain(0)
	}
	ref, refExec := coprimeScenario(t, 1, runner)
	if len(ref) == 0 {
		t.Fatal("scenario produced no events")
	}
	for _, k := range batchSizes[1:] {
		got, exec := coprimeScenario(t, k, runner)
		if exec != refExec {
			t.Errorf("batch=%d executed %d events, want %d", k, exec, refExec)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("batch=%d trace diverges from unbatched", k)
			for i := range ref {
				if i >= len(got) || got[i] != ref[i] {
					t.Fatalf("first divergence at %d: got %q want %q", i, got[i:min(i+3, len(got))], ref[i:min(i+3, len(ref))])
				}
			}
		}
	}
}

// TestBatchEquivalenceDrainLimit checks that an event budget stops every
// batch size at exactly the same event.
func TestBatchEquivalenceDrainLimit(t *testing.T) {
	for _, limit := range []uint64{1, 5, 17, 100} {
		runner := func(s *Sim) { s.Drain(limit) }
		ref, refExec := coprimeScenario(t, 1, runner)
		if refExec != limit {
			t.Fatalf("unbatched Drain(%d) executed %d events", limit, refExec)
		}
		for _, k := range batchSizes[1:] {
			got, exec := coprimeScenario(t, k, runner)
			if exec != limit {
				t.Errorf("batch=%d Drain(%d) executed %d events", k, limit, exec)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("batch=%d Drain(%d) trace diverges", k, limit)
			}
		}
	}
}

// TestBatchRespectsRunDeadline checks that batching never advances time
// past a RunUntil deadline: the clock must stop exactly where the
// unbatched engine stops, with the next edge left pending.
func TestBatchRespectsRunDeadline(t *testing.T) {
	for _, k := range batchSizes {
		s := New()
		clk := s.NewClock("dp", 4*Nanosecond)
		clk.SetBatch(k)
		ticks := 0
		clk.RegisterFunc(func() bool {
			ticks++
			return true // always busy
		})
		s.RunUntil(41 * Nanosecond)
		if s.Now() != 41*Nanosecond {
			t.Fatalf("batch=%d: Now=%d, want deadline", k, s.Now())
		}
		// Edges at 4,8,...,40 ns: exactly 10 inside the deadline.
		if ticks != 10 {
			t.Fatalf("batch=%d: %d edges ran, want 10", k, ticks)
		}
		if at, ok := s.Peek(); !ok || at != 44*Nanosecond {
			t.Fatalf("batch=%d: next edge pending at %d, want 44ns", k, at)
		}
	}
}
