package sim

import (
	"testing"
	"testing/quick"
)

// ComponentFunc adapts a per-edge function to the Component interface.
type ComponentFunc func() bool

// Advance implements Component: one edge per call.
func (f ComponentFunc) Advance(int) (int, bool) { return 1, f() }

// RegisterFunc adds a function component to the domain.
func (c *Clock) RegisterFunc(fn func() bool) { c.Register(ComponentFunc(fn)) }

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

// seedAt returns the seed whose first Float64 is k/2^53: splitmix64's
// output mix inverted step by step.
func seedAt(k uint64) uint64 {
	inv := func(c uint64) uint64 { // c's inverse mod 2^64, by Newton
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z := k << 11
	z ^= z>>31 ^ z>>62
	z *= inv(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inv(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z - 0x9e3779b97f4a7c15
}

// TestRandExpDurationPinned: ExpDuration's outputs for fixed draws
// u = k/2^53 (u = 0 takes the smallest-subnormal path; u near ½ and
// near sqrt(2)/2 straddle the logarithm's reduction boundaries) at
// means from 1 ps to 1000 s, as amd64's assembly math.Log gave them
// before ExpDuration owned its logarithm. Any platform must print
// exactly these.
func TestRandExpDurationPinned(t *testing.T) {
	means := []Time{1, 1000, 1000000, 123456789, 1000000000000, 1000000000000000}
	for _, row := range [][7]uint64{
		{0, 709, 709089, 709089565, 87541920896, 709089565712824, 709089565712824064},
		{1, 36, 36736, 36736800, 4535407436, 36736800569677, 36736800569677104},
		{8388608, 20, 20794, 20794415, 2567211756, 20794415416798, 20794415416798360},
		{900719925474099, 2, 2302, 2302585, 284269761, 2302585092994, 2302585092994046},
		{2251799813685248, 1, 1386, 1386294, 171147450, 1386294361119, 1386294361119890},
		{3002399751580330, 1, 1098, 1098612, 135631145, 1098612288668, 1098612288668110},
		{4503599627370495, 1, 693, 693147, 85573725, 693147180559, 693147180559945},
		{4503599627370496, 1, 693, 693147, 85573725, 693147180559, 693147180559945},
		{4503599627370497, 1, 693, 693147, 85573725, 693147180559, 693147180559945},
		{6369051672525772, 1, 346, 346573, 42786862, 346573590279, 346573590279972},
		{6369051672525773, 1, 346, 346573, 42786862, 346573590279, 346573590279972},
		{6755399441055744, 1, 287, 287682, 35516304, 287682072451, 287682072451780},
		{8106479329266892, 1, 105, 105360, 13007470, 105360515657, 105360515657826},
		{9007199254732800, 1, 1, 1, 1, 1, 909},
		{9007199254740991, 1, 1, 1, 1, 1, 1},
	} {
		k := row[0]
		if u := NewRand(seedAt(k)).Float64(); u != float64(k)/(1<<53) {
			t.Fatalf("seedAt(%d) draws %v", k, u)
		}
		for i, mean := range means {
			if got := NewRand(seedAt(k)).ExpDuration(mean); got != Time(row[i+1]) {
				t.Errorf("u=%d/2^53, mean %d: ExpDuration = %d, want %d", k, mean, got, row[i+1])
			}
		}
	}
}

// TestRandIntnIsModulo: Intn(n) is the next Uint64 modulo n, whichever
// way it is computed — for every power of two up to 2^62 (masked) and
// for random n (divided) — so a generator's draws, and every golden
// built from them, do not depend on the shortcut.
func TestRandIntnIsModulo(t *testing.T) {
	check := func(n int, seed uint64) {
		t.Helper()
		a, b := NewRand(seed), NewRand(seed)
		for range 2000 {
			if got, want := a.Intn(n), int(b.Uint64()%uint64(n)); got != want {
				t.Fatalf("n=%d seed=%d: Intn = %d, Uint64 %% n = %d", n, seed, got, want)
			}
		}
	}
	for k := 0; k <= 62; k++ {
		check(1<<k, uint64(k))
	}
	pick := NewRand(99)
	for i := range 200 {
		n := int(pick.Uint64()>>(2+pick.Uint64()%62)) + 1 // 1 … 2^62, every magnitude
		check(n, uint64(1000+i))
	}
}
