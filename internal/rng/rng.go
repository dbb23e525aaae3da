// Package rng provides deterministic, seedable random sources and the
// probability distributions used by the reliability Monte Carlo simulation
// (exponential inter-failure times, normally distributed annual maintenance)
// and by the synthetic trace generator.
//
// Every consumer of randomness in this repository takes an explicit
// *rng.Source so that simulations are reproducible run-to-run and the test
// suite can pin seeds.
package rng

import (
	"math"
	"math/rand"
	"time"
)

// Source is a deterministic random source. It wraps math/rand with the
// distribution helpers the simulator needs.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new independent-looking source from s. It is used to give
// each simulated component its own stream so that adding a component does not
// perturb the draws of the others.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform draw in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Exp returns an exponentially distributed draw with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// ExpDuration returns an exponentially distributed duration with the given
// mean.
func (s *Source) ExpDuration(mean time.Duration) time.Duration {
	return time.Duration(s.Exp(float64(mean)))
}

// Normal returns a normally distributed draw with mean mu and standard
// deviation sigma.
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// NormalDuration returns a normally distributed duration truncated below at
// zero. Annual-maintenance intervals use this (mu = 1 year, sigma from the
// maintenance dataset); truncation prevents nonsensical negative intervals.
func (s *Source) NormalDuration(mu, sigma time.Duration) time.Duration {
	d := s.Normal(float64(mu), float64(sigma))
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// TruncNormal returns a normal draw clamped to [lo, hi].
func (s *Source) TruncNormal(mu, sigma, lo, hi float64) float64 {
	v := s.Normal(mu, sigma)
	return math.Min(hi, math.Max(lo, v))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle randomises the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
