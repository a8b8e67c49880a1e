package simrand

import (
	"math"
	"testing"
)

func TestZipfRangeAndSkew(t *testing.T) {
	rng := New(7)
	z := NewZipf(rng, 100, 1.0)
	counts := make([]int, 101)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Draw()
		if v < 1 || v > 100 {
			t.Fatalf("Zipf draw %d out of [1,100]", v)
		}
		counts[v]++
	}
	// Rank 1 must dominate rank 10 roughly 10:1 under s=1.
	ratio := float64(counts[1]) / float64(counts[10])
	if ratio < 6 || ratio > 16 {
		t.Errorf("count(1)/count(10) = %v, want ~10", ratio)
	}
	// Frequencies must be (statistically) non-increasing near the head.
	if counts[1] < counts[2] || counts[2] < counts[5] {
		t.Error("Zipf head frequencies not decreasing")
	}
}

func TestZipfUniformDegeneration(t *testing.T) {
	rng := New(9)
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 11)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for v := 1; v <= 10; v++ {
		if math.Abs(float64(counts[v])-n/10) > n/10*0.15 {
			t.Errorf("s=0 value %d has %d draws, want ~%d", v, counts[v], n/10)
		}
	}
}

func TestZipfSingleValue(t *testing.T) {
	z := NewZipf(New(1), 1, 2.0)
	for i := 0; i < 100; i++ {
		if z.Draw() != 1 {
			t.Fatal("Zipf over domain of 1 returned a different value")
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(New(1), 0, 1) },
		func() { NewZipf(New(1), 5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Zipf parameters did not panic")
				}
			}()
			f()
		}()
	}
}

func TestZipfDeterministicGivenSeed(t *testing.T) {
	a := NewZipf(New(3), 20, 0.8)
	b := NewZipf(New(3), 20, 0.8)
	for i := 0; i < 100; i++ {
		if a.Draw() != b.Draw() {
			t.Fatal("Zipf draws diverged under equal seeds")
		}
	}
}
