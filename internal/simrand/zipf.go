package simrand

import (
	"math"
	"sort"
)

// Zipf samples integers in [1, n] with P(v) ∝ 1/v^s. Real hidden databases
// (car makes, NSF program managers, PI organizations) are heavily skewed, so
// the synthetic stand-ins for the paper's datasets draw categorical values
// from Zipf marginals.
//
// The implementation precomputes the CDF and samples by binary search: O(n)
// memory, O(log n) per draw, exact (no rejection), deterministic given the
// RNG. Domain sizes in this repo top out around 29042 (the NSF PI-name
// attribute), so the precomputed table is cheap.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a Zipf sampler over [1, n] with exponent s >= 0.
// s = 0 degenerates to the uniform distribution.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n < 1 {
		panic("simrand: NewZipf with n < 1")
	}
	if s < 0 {
		panic("simrand: NewZipf with s < 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for v := 1; v <= n; v++ {
		sum += math.Pow(float64(v), -s)
		cdf[v-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1.0
	return &Zipf{rng: rng, cdf: cdf}
}

// Draw samples one value in [1, n].
func (z *Zipf) Draw() int64 {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return int64(i + 1)
}
