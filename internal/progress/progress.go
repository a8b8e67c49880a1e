// Package progress analyzes the progressiveness of a crawl: how steadily an
// algorithm churns out new tuples as it spends queries. The paper's Figure
// 13 plots the percentage of tuples output against the percentage of
// queries issued and observes near-linear progress for the hybrid
// algorithm; this package computes that curve and quantifies its deviation
// from the ideal diagonal.
package progress

import (
	"fmt"
	"math"

	"hidb/internal/core"
)

// Point is one sample of a normalized progressiveness curve.
type Point struct {
	// QueryFrac is the fraction of all eventually-issued queries, in [0,1].
	QueryFrac float64
	// TupleFrac is the fraction of all eventually-output tuples, in [0,1].
	TupleFrac float64
}

// Curve is a normalized progressiveness curve, monotone in both coordinates.
type Curve []Point

// Normalize converts a crawl's OnProgress points (absolute counts) into
// fractions of the final totals: the last point's queries and tuples, the
// crawl's final bag size. The last point is taken to have output every
// tuple, since the last query's answer may be emitted after its point was
// reported. No points, no queries or no tuples yield nil.
func Normalize(raw []core.CurvePoint, tuples int) Curve {
	if len(raw) == 0 {
		return nil
	}
	queries := raw[len(raw)-1].Queries
	if queries == 0 || tuples == 0 {
		return nil
	}
	out := make(Curve, len(raw))
	for i, p := range raw {
		out[i] = Point{
			QueryFrac: float64(p.Queries) / float64(queries),
			TupleFrac: float64(p.Tuples) / float64(tuples),
		}
	}
	out[len(out)-1].TupleFrac = 1
	return out
}

// At returns the tuple fraction achieved once frac of the queries have been
// issued, by stepwise interpolation of the curve.
func (c Curve) At(frac float64) float64 {
	if len(c) == 0 {
		return 0
	}
	best := 0.0
	for _, p := range c {
		if p.QueryFrac <= frac {
			best = p.TupleFrac
		} else {
			break
		}
	}
	return best
}

// Deciles samples the curve at 10%, 20%, …, 100% of the queries — the
// series Figure 13 plots.
func (c Curve) Deciles() [10]float64 {
	var out [10]float64
	for i := 1; i <= 10; i++ {
		out[i-1] = c.At(float64(i) / 10)
	}
	return out
}

// MaxDeviation returns the largest vertical distance between the curve and
// the ideal diagonal y = x. A perfectly progressive crawl has deviation 0;
// an algorithm that outputs everything at the end approaches 1.
func (c Curve) MaxDeviation() float64 {
	max := 0.0
	for _, p := range c {
		d := math.Abs(p.TupleFrac - p.QueryFrac)
		if d > max {
			max = d
		}
	}
	return max
}

// String renders the deciles compactly for logs.
func (c Curve) String() string {
	d := c.Deciles()
	s := "["
	for i, v := range d {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f%%", v*100)
	}
	return s + "]"
}
