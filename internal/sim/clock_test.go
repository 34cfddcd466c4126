package sim

import (
	"testing"
	"testing/quick"
)

// countdown ticks busily for n cycles and then goes idle.
type countdown struct {
	n     int
	ticks int
}

func (c *countdown) Advance(int) (int, bool) {
	c.ticks++
	if c.n > 0 {
		c.n--
		return 1, true
	}
	return 1, false
}

func TestClockGatesWhenIdle(t *testing.T) {
	s := New()
	clk := s.NewClock("dp", 5*Nanosecond)
	c := &countdown{n: 10}
	clk.Register(c)
	s.RunFor(Millisecond)
	// 10 busy ticks plus the final idle tick that gates the clock.
	if c.ticks != 11 {
		t.Fatalf("component ticked %d times, want 11", c.ticks)
	}
	if clk.Ticks() != 11 {
		t.Fatalf("clock executed %d edges, want 11", clk.Ticks())
	}
}

func TestClockWakeRearms(t *testing.T) {
	s := New()
	clk := s.NewClock("dp", 10*Nanosecond)
	c := &countdown{n: 1}
	clk.Register(c)
	s.RunFor(Microsecond)
	before := c.ticks
	// Wake it again mid-simulation.
	s.After(Microsecond, func() {
		c.n = 3
		clk.Wake()
	})
	s.RunFor(2 * Microsecond)
	if c.ticks != before+4 { // 3 busy + 1 gating tick
		t.Fatalf("component ticked %d more times, want 4", c.ticks-before)
	}
}

func TestClockEdgesAlignToGrid(t *testing.T) {
	s := New()
	clk := s.NewClock("dp", 7*Nanosecond)
	var edgeTimes []Time
	clk.RegisterFunc(func() bool {
		edgeTimes = append(edgeTimes, s.Now())
		return len(edgeTimes) < 5
	})
	s.RunFor(Microsecond)
	for _, at := range edgeTimes {
		if at%(7*Nanosecond) != 0 {
			t.Fatalf("edge at %v not aligned to 7ns grid", at)
		}
	}
	if len(edgeTimes) != 5 {
		t.Fatalf("got %d edges, want 5", len(edgeTimes))
	}
}

func TestClockCycleCountsGatedTime(t *testing.T) {
	s := New()
	clk := s.NewClock("dp", 10*Nanosecond)
	c := &countdown{n: 0}
	clk.Register(c)
	s.RunFor(Microsecond) // clock gates off almost immediately
	s.After(0, func() { clk.Wake() })
	s.RunFor(Microsecond)
	// After waking at t=1us, cycle should reflect wall-position, not the
	// handful of executed ticks.
	if clk.Cycle() < 100 {
		t.Fatalf("cycle = %d, want >= 100 (time-derived)", clk.Cycle())
	}
	if clk.Ticks() > 4 {
		t.Fatalf("clock should have executed only a few edges, got %d", clk.Ticks())
	}
}

func TestMultipleDomainsDeterministic(t *testing.T) {
	run := func() []string {
		s := New()
		fast := s.NewClock("fast", 3*Nanosecond)
		slow := s.NewClock("slow", 10*Nanosecond)
		var order []string
		n1, n2 := 5, 5
		fast.RegisterFunc(func() bool {
			order = append(order, "f")
			n1--
			return n1 > 0
		})
		slow.RegisterFunc(func() bool {
			order = append(order, "s")
			n2--
			return n2 > 0
		})
		s.RunFor(Microsecond)
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandExpDurationMean(t *testing.T) {
	r := NewRand(1)
	const mean = 1000 * Nanosecond
	var sum Time
	const n = 200000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 1 {
			t.Fatal("ExpDuration below 1ps")
		}
		sum += d
	}
	got := float64(sum) / n
	if got < 0.97*float64(mean) || got > 1.03*float64(mean) {
		t.Fatalf("empirical mean %.0fps, want within 3%% of %d", got, int64(mean))
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	out := make([]int, 16)
	r.Perm(out)
	seen := make(map[int]bool)
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}
