package progress

import (
	"math"
	"testing"

	"hidb/internal/core"
)

func linearCurve(n int) []core.CurvePoint {
	out := make([]core.CurvePoint, n)
	for i := range out {
		out[i] = core.CurvePoint{Queries: i + 1, Tuples: (i + 1) * 10}
	}
	return out
}

func TestNormalize(t *testing.T) {
	c := Normalize(linearCurve(10), 100)
	if len(c) != 10 {
		t.Fatalf("len = %d", len(c))
	}
	last := c[len(c)-1]
	if last.QueryFrac != 1 || last.TupleFrac != 1 {
		t.Fatalf("final point %+v, want (1,1)", last)
	}
	if c[4].QueryFrac != 0.5 || c[4].TupleFrac != 0.5 {
		t.Fatalf("midpoint %+v, want (0.5,0.5)", c[4])
	}

	// The last point may predate the crawl's final emits: the final bag
	// size sets the scale, and the last point reaches it.
	raw := linearCurve(10)
	raw[9].Tuples = 80
	c = Normalize(raw, 100)
	if last := c[len(c)-1]; last.TupleFrac != 1 || c[4].TupleFrac != 0.5 {
		t.Fatalf("lagging last point: final %+v, midpoint %+v, want TupleFrac 1 and 0.5", last, c[4])
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	if Normalize(nil, 0) != nil {
		t.Error("nil raw curve should normalize to nil")
	}
	if Normalize([]core.CurvePoint{{Queries: 0, Tuples: 0}}, 0) != nil {
		t.Error("zero totals should normalize to nil")
	}
}

func TestAt(t *testing.T) {
	c := Normalize(linearCurve(10), 100)
	if got := c.At(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(1); got != 1 {
		t.Errorf("At(1) = %v, want 1", got)
	}
	var empty Curve
	if empty.At(0.5) != 0 {
		t.Error("empty curve At != 0")
	}
}

func TestDeciles(t *testing.T) {
	c := Normalize(linearCurve(100), 1000)
	d := c.Deciles()
	for i, v := range d {
		want := float64(i+1) / 10
		if math.Abs(v-want) > 0.02 {
			t.Errorf("decile %d = %v, want ~%v", i+1, v, want)
		}
	}
}

func TestMaxDeviationLinear(t *testing.T) {
	c := Normalize(linearCurve(50), 500)
	if dev := c.MaxDeviation(); dev > 0.03 {
		t.Errorf("linear curve deviation %v", dev)
	}
}

func TestMaxDeviationBackLoaded(t *testing.T) {
	// Everything arrives in the last query: deviation near 1.
	raw := make([]core.CurvePoint, 100)
	for i := range raw {
		raw[i] = core.CurvePoint{Queries: i + 1, Tuples: 0}
	}
	raw[99].Tuples = 1000
	c := Normalize(raw, 1000)
	if dev := c.MaxDeviation(); dev < 0.9 {
		t.Errorf("back-loaded curve deviation %v, want ~1", dev)
	}
}

func TestString(t *testing.T) {
	c := Normalize(linearCurve(10), 100)
	s := c.String()
	if s == "" || s[0] != '[' {
		t.Errorf("String = %q", s)
	}
}
