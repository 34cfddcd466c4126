package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every stochastic element of a simulation draws from an
// explicitly seeded Rand so experiments are reproducible; the global
// math/rand source is never used. Like Sim, a Rand is per-instance
// state confined to one goroutine — fleet devices each get their own,
// seeded from (base seed, device index), which is what makes parallel
// batches byte-for-byte reproducible at any worker count.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Seed restarts the generator at seed: it then draws exactly what
// NewRand(seed) would.
func (r *Rand) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n): the next Uint64 modulo n. It
// panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	x, m := r.Uint64(), uint64(n)
	if m&(m-1) == 0 {
		return int(x & (m - 1)) // x % m for a power of two, without the divide
	}
	return int(x % m)
}

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, for Poisson arrival processes. The result is at least 1 ps so a
// pathological draw can never stall time.
func (r *Rand) ExpDuration(mean Time) Time {
	if mean <= 0 {
		return 1
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := Time(-logUnit(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// logUnit is the natural logarithm of u in (0, 1): math.Log's algorithm
// (FreeBSD's e_log.c) with each product that feeds an add rounded
// explicitly, so arm64 and the other fusing architectures cannot merge
// a multiply-add and every platform returns what amd64's assembly
// math.Log returns, bit for bit. Like that assembly, the reduction
// reads the exponent field without normalizing, which matters only for
// a subnormal u.
func logUnit(u float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1    = 6.666666666666735130e-01   // 0x3fe5555555555593
		l2    = 3.999999999940941908e-01   // 0x3fd999999997fa04
		l3    = 2.857142874366239149e-01   // 0x3fd2492494229359
		l4    = 2.222219843214978396e-01   // 0x3fcc71c51d8e78af
		l5    = 1.818357216161805012e-01   // 0x3fc7466496cb03de
		l6    = 1.531383769920937332e-01   // 0x3fc39a09d078c69f
		l7    = 1.479819860511658591e-01   // 0x3fc2f112df3e5244
	)
	// u = f1 * 2^k with f1 in [sqrt(2)/2, sqrt(2)).
	bits := math.Float64bits(u)
	k := float64(int(bits>>52&0x7ff) - 0x3fe)
	f1 := math.Float64frombits(bits&(1<<52-1) | 0x3fe0000000000000)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		k--
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
