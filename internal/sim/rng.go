package sim

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of the random variates the models need. Independent
// streams (arrivals, file choice, cost error, ...) are derived from one
// master seed with Stream, so adding a consumer never perturbs the draws
// seen by existing consumers.
type RNG struct {
	seed int64
	r    *rand.Rand // built on the first draw; nil until then
}

// NewRNG returns a generator seeded with seed. The ~5 KB source is seeded on
// the first draw, so a generator used only to derive streams, or a stream
// never drawn from, costs no more than its seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src returns the underlying source, seeding it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Stream derives an independent generator for the named consumer. The
// derivation mixes the master seed with a hash of the name (splitmix64 over
// FNV), so streams are stable across runs and decoupled from each other.
func (g *RNG) Stream(name string) *RNG {
	return NewRNG(DeriveSeed(g.seed, name))
}

// DeriveSeed derives an independent substream seed from a root seed and a
// string key (splitmix64 over an FNV-1a hash of the key). It is the seeding
// scheme behind Stream, exported so harnesses that replicate runs — the
// sweep engine derives one substream per (cell key, replication) — get
// seeds that are stable across runs, decoupled from each other, and
// independent of execution order.
func DeriveSeed(root int64, key string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int64(splitmix64(uint64(root) ^ h))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed returns the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform integer in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// Exp returns an exponential variate with the given rate (mean 1/rate).
// rate must be > 0.
func (g *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp needs rate > 0")
	}
	return g.src().ExpFloat64() / rate
}

// ExpTime returns an exponential inter-arrival span for a Poisson process of
// ratePerSecond events per second.
func (g *RNG) ExpTime(ratePerSecond float64) Time {
	return FromSeconds(g.Exp(ratePerSecond))
}

// Norm returns a normal variate with the given mean and standard deviation.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*g.src().NormFloat64()
}

// Pareto returns a Pareto variate with shape alpha and scale xm (the
// distribution's minimum) by inverse-CDF sampling. Both must be positive.
// For alpha > 1 the mean is alpha*xm/(alpha-1), so xm = (alpha-1)/alpha
// gives a unit-mean draw — the normalization the heavy-tailed cost
// workload uses.
func (g *RNG) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("sim: Pareto needs alpha > 0 and xm > 0")
	}
	return xm / math.Pow(1-g.Float64(), 1/alpha)
}

// TwoDistinct returns two distinct uniform integers in [0, n). n must be >= 2.
func (g *RNG) TwoDistinct(n int) (int, int) {
	if n < 2 {
		panic("sim: TwoDistinct needs n >= 2")
	}
	a := g.Intn(n)
	b := g.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// Standard normal CDF helper used by analytical sanity tests.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
