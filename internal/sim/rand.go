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

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
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
	d := Time(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Perm fills out with a random permutation of [0, len(out)).
func (r *Rand) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
