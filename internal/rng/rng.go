// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the FineMoE simulator.
//
// Every experiment in this repository must be reproducible from a single
// seed. The standard library's math/rand is seedable but its stream is not
// guaranteed stable across Go releases for all helper methods, and it cannot
// be "split" into independent, deterministic sub-streams keyed by structured
// identifiers (model, layer, prompt, iteration). This package implements
// SplitMix64 for seeding and xoshiro256** for generation, both of which have
// published, frozen reference outputs.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single seed into the four xoshiro words and to
// derive child seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary sequence of integer keys into a single 64-bit
// value. It is the basis for deriving independent deterministic streams
// from structured identifiers, e.g. Mix(seed, layerID, expertID).
func Mix(keys ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, k := range keys {
		h ^= k + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitMix64(&h)
	}
	return h
}

// RNG is a xoshiro256** generator. The zero value is not valid; use New.
type RNG struct {
	s    [4]uint64
	seed uint64 // retained so Derive is independent of consumption
	// cached spare Gaussian for Box-Muller pairs
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *RNG {
	r := Seeded(seed)
	return &r
}

// Seeded returns a generator seeded exactly like New but by value, so
// short-lived keyed streams (one per request, iteration, or token) can
// live on the caller's stack instead of escaping to the heap. The
// returned value produces the same stream as *New(seed).
func Seeded(seed uint64) RNG {
	r := RNG{seed: seed}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns a new independent generator whose stream is a deterministic
// function of this generator's seed material and the supplied keys. Derive
// does not consume randomness from the parent, so sibling streams are stable
// regardless of how much the parent has been used.
func (r *RNG) Derive(keys ...uint64) *RNG {
	all := make([]uint64, 0, len(keys)+1)
	all = append(all, r.seed)
	all = append(all, keys...)
	return New(Mix(all...))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard-normal variate via Box-Muller, caching the pair's
// second value for the next call.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// LogNormal returns a log-normal variate with the given underlying normal
// mean and standard deviation.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// UnitVec fills dst with an isotropically distributed unit vector.
func (r *RNG) UnitVec(dst []float64) {
	var norm float64
	for {
		norm = 0
		for i := range dst {
			dst[i] = r.Norm()
			norm += dst[i] * dst[i]
		}
		if norm > 1e-12 {
			break
		}
	}
	inv := 1 / math.Sqrt(norm)
	for i := range dst {
		dst[i] *= inv
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// UnitVecFor returns a deterministic unit vector of dimension dim keyed by
// the supplied identifiers; the same keys always yield the same vector.
// It is used for topic directions and per-layer drift directions.
func UnitVecFor(dim int, keys ...uint64) []float64 {
	v := make([]float64, dim)
	New(Mix(keys...)).UnitVec(v)
	return v
}
