// Package simrand provides a small deterministic random toolkit for the
// dataset generators and the hidden-database simulator: a SplitMix64 core
// generator, uniform helpers, permutations, and a Zipf sampler.
//
// Determinism matters here: the paper's experiments assign every tuple a
// random priority so that an overflowing query always returns the same k
// tuples. A seeded generator makes whole experiment runs reproducible
// bit-for-bit, which the test suite relies on.
package simrand

import "math"

// RNG is a SplitMix64 pseudo-random generator. It is tiny, fast, passes
// BigCrush, and — unlike math/rand's global state — is trivially
// reproducible and safe to embed per-dataset.
type RNG struct {
	state uint64
}

// New returns a generator seeded with the given value. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("simrand: Int64n with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method (unbiased).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("simrand: Uint64n with n == 0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// IntRange returns a uniform int64 in [lo, hi] inclusive.
func (r *RNG) IntRange(lo, hi int64) int64 {
	if lo > hi {
		panic("simrand: IntRange with lo > hi")
	}
	span := uint64(hi - lo + 1)
	if span == 0 { // full int64 range
		return int64(r.Uint64())
	}
	return lo + int64(r.Uint64n(span))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
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

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, via the Box–Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success (>= 0).
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("simrand: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int64(math.Floor(math.Log(u) / math.Log(1-p)))
}
