package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nProperty(t *testing.T) {
	r := New(7)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntRangeInclusive(t *testing.T) {
	r := New(3)
	lo, hi := int64(-5), int64(5)
	seen := make(map[int64]bool)
	for i := 0; i < 2000; i++ {
		v := r.IntRange(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 11 {
		t.Errorf("IntRange hit %d of 11 values in 2000 draws", len(seen))
	}
	if r.IntRange(7, 7) != 7 {
		t.Error("degenerate range wrong")
	}
}

func TestUniformityRough(t *testing.T) {
	r := New(99)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", b, c, n/buckets)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(19)
	p := 0.25
	const n = 50000
	sum := int64(0)
	for i := 0; i < n; i++ {
		v := r.Geometric(p)
		if v < 0 {
			t.Fatalf("Geometric returned negative %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	want := (1 - p) / p // = 3
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
	if New(1).Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(23)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) hit rate %v", frac)
	}
}
