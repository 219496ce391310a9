package rng

import "math"

// Source is a deterministic SplitMix64 generator. The zero value is a
// valid generator seeded with 0; prefer New for explicit seeding.
type Source struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normally distributed float with the given mean and
// standard deviation, via the Box-Muller transform.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exponential returns an exponentially distributed float with the given
// mean (rate 1/mean).
func (s *Source) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
