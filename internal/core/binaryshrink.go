package core

import (
	"context"
	"fmt"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// BinaryShrink is the paper's baseline for numeric spaces (§2.1): repeatedly
// 2-way split an overflowing rectangle at the midpoint of the extent of a
// non-exhausted attribute. Its cost depends on the attribute domain sizes
// (it may probe empty half-spaces all the way down), which is exactly the
// weakness rank-shrink removes.
//
// Because midpoints of unbounded extents are undefined, binary-shrink
// requires every numeric attribute to declare finite Min/Max bounds, and it
// only explores the declared bounding box: tuples lying outside it are
// silently unreachable. (rank-shrink has neither limitation — one of the
// reasons it is the recommended algorithm.)
type BinaryShrink struct{}

// Name implements Crawler.
func (BinaryShrink) Name() string { return "binary-shrink" }

// Crawl implements Crawler. The server's schema must be purely numeric with
// declared bounds on every attribute.
func (BinaryShrink) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	sch := srv.Schema()
	if !sch.IsNumeric() {
		return &Result{}, ErrWrongSpace
	}
	for i := 0; i < sch.Dims(); i++ {
		a := sch.Attr(i)
		if a.Min == 0 && a.Max == 0 {
			return &Result{}, fmt.Errorf("binary-shrink: numeric attribute %q needs declared Min/Max bounds: %w", a.Name, ErrWrongSpace)
		}
	}
	// Start from the bounding rectangle declared by the schema.
	q := dataspace.UniverseQuery(sch)
	for i := 0; i < sch.Dims(); i++ {
		lo, hi := sch.Attr(i).Bounds()
		q = q.WithRange(i, lo, hi)
	}
	return runSession(ctx, srv, opts, false, func(s *session) error {
		return binaryShrink(s, q, 0)
	})
}

// binaryShrink splits round-robin (kd-tree style): the split dimension
// cycles through the non-exhausted attributes, starting from the hint. The
// paper only requires "an attribute Ai that has not been exhausted";
// cycling keeps the recursion balanced across dimensions.
func binaryShrink(s *session, q dataspace.Query, hint int) error {
	res, err := s.Issue(q)
	if err != nil {
		return err
	}
	if res.Resolved() {
		s.Emit(res.Tuples)
		return nil
	}
	dim := nextOpenNumeric(q, hint)
	if dim < 0 {
		return ErrUnsolvable
	}
	lo, hi := q.Extent(dim)
	// Split at ceil((lo+hi)/2), written to avoid int64 overflow on large
	// extents: mid = lo + ceil((hi-lo)/2) and hi > lo here.
	mid := lo + (hi-lo+1)/2
	left, right, err := q.Split2(dim, mid)
	if err != nil {
		return err
	}
	if err := binaryShrink(s, left, dim+1); err != nil {
		return err
	}
	return binaryShrink(s, right, dim+1)
}

// nextOpenNumeric returns the first non-exhausted numeric attribute at or
// cyclically after the hint position, or -1 when all are exhausted.
func nextOpenNumeric(q dataspace.Query, hint int) int {
	sch := q.Schema()
	d := sch.Dims()
	for off := 0; off < d; off++ {
		i := (hint + off) % d
		if sch.Attr(i).Kind == dataspace.Numeric && !q.Exhausted(i) {
			return i
		}
	}
	return -1
}
