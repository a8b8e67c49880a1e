package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"hidb/internal/dataspace"
)

// median returns the middle value (mean of the two middle ones), 0 when xs
// is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ds in
// microseconds.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ds))
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / float64(time.Microsecond)
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), the spread definition the benchmark is accepted on.
// A single value is its own quartiles; xs must not be empty.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fingerprint is an order-independent digest of a bag of tuples: two
// bags have equal fingerprints when they hold the same tuples with the
// same multiplicities (up to 128-bit hash collisions).
type fingerprint struct {
	n          int
	sum, sumSq uint64
}

func (f *fingerprint) add(t dataspace.Tuple) {
	h := uint64(len(t))
	for _, v := range t {
		h = mix(h ^ uint64(v))
	}
	f.n++
	f.sum += h
	f.sumSq += mix(h)
}

func fingerprintOf(bag dataspace.Bag) fingerprint {
	var f fingerprint
	for _, t := range bag {
		f.add(t)
	}
	return f
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
