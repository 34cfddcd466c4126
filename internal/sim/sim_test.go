package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Drain(0)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(42, func() { got = append(got, i) })
	}
	s.Drain(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order (got %d)", i, v)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {})
	s.Drain(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(50, func() {})
}

func TestTimerStopAndReschedule(t *testing.T) {
	s := New()
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.ScheduleAt(100)
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report not pending")
	}
	s.Drain(0)
	if fired != 0 {
		t.Fatalf("stopped timer fired %d times", fired)
	}

	tm.ScheduleAt(200)
	tm.ScheduleAt(150) // re-arm earlier while pending
	s.Drain(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 150 {
		t.Fatalf("Now = %v, want 150", s.Now())
	}
}

func TestPeriodicTimerReArm(t *testing.T) {
	s := New()
	n := 0
	var tm *Timer
	tm = s.NewTimer(func() {
		n++
		if n < 5 {
			tm.ScheduleAfter(10)
		}
	})
	tm.ScheduleAt(10)
	s.Drain(0)
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	if s.Now() != 50 {
		t.Fatalf("Now = %v, want 50", s.Now())
	}
}

func TestRunUntilAdvancesTime(t *testing.T) {
	s := New()
	ran := false
	s.At(1000, func() { ran = true })
	s.RunUntil(500)
	if ran {
		t.Fatal("event at 1000 ran before deadline 500")
	}
	if s.Now() != 500 {
		t.Fatalf("Now = %v, want 500", s.Now())
	}
	s.RunFor(500)
	if !ran {
		t.Fatal("event at 1000 should have run")
	}
}

func TestDrainLimit(t *testing.T) {
	s := New()
	var tm *Timer
	tm = s.NewTimer(func() { tm.ScheduleAfter(1) }) // runs forever
	tm.ScheduleAt(1)
	if s.Drain(100) {
		t.Fatal("Drain should hit the limit")
	}
	if s.Executed() != 100 {
		t.Fatalf("executed %d, want 100", s.Executed())
	}
}

// TestHeapOrderProperty drives the heap with random schedules and checks
// events always fire in nondecreasing time order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fireTimes []Time
		for _, d := range delays {
			at := Time(d)
			s.At(at, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Drain(0)
		if len(fireTimes) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapRandomStops removes random timers and checks the remainder still
// fires in order and exactly once.
func TestHeapRandomStops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		s := New()
		const n = 200
		timers := make([]*Timer, n)
		fired := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = s.NewTimer(func() { fired[i]++ })
			timers[i].ScheduleAt(Time(rng.Intn(1000)))
		}
		stopped := make(map[int]bool)
		for i := 0; i < n/3; i++ {
			k := rng.Intn(n)
			timers[k].Stop()
			stopped[k] = true
		}
		s.Drain(0)
		for i := 0; i < n; i++ {
			want := 1
			if stopped[i] {
				want = 0
			}
			if fired[i] != want {
				t.Fatalf("iter %d: timer %d fired %d times, want %d", iter, i, fired[i], want)
			}
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1.000000s"},
		{-Nanosecond, "-1.000ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestPeriodOfMHz(t *testing.T) {
	if p := PeriodOfMHz(200); p != 5*Nanosecond {
		t.Fatalf("200MHz period = %v, want 5ns", p)
	}
	if p := PeriodOfMHz(156.25); p != 6400 {
		t.Fatalf("156.25MHz period = %v ps, want 6400", int64(p))
	}
}

func TestBitTime(t *testing.T) {
	// 10Gbps: 1 bit = 100ps; a 64-byte frame = 51.2ns
	if bt := BitTime(1, 10); bt != 100 {
		t.Fatalf("bit time at 10G = %dps, want 100", int64(bt))
	}
	if bt := BitTime(64*8, 10); bt != Time(51200) {
		t.Fatalf("64B at 10G = %dps, want 51200", int64(bt))
	}
}

// BenchmarkSimEventThroughput is the event core's profiling entry point:
// one timer re-armed from its own callback, b.N times.
func BenchmarkSimEventThroughput(b *testing.B) {
	s := New()
	var tm *Timer
	n := 0
	tm = s.NewTimer(func() {
		n++
		if n < b.N {
			tm.ScheduleAfter(1)
		}
	})
	tm.ScheduleAfter(1)
	b.ResetTimer()
	s.Drain(0)
	if n != b.N {
		b.Fatalf("ran %d events", n)
	}
}
