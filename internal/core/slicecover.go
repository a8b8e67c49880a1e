package core

import (
	"context"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// SliceCover is the paper's optimal algorithm for categorical spaces (§3.2).
// A preprocessing phase issues every slice query (Ai = c with wildcards
// elsewhere) and records the responses in a lookup table; extended-DFS then
// walks the data-space tree, answering a child's query locally — without a
// server round-trip — whenever the slice query matching the child's new
// predicate resolved.
//
// Cost: at most Σ Ui + (n/k)·Σ min{Ui, n/k} queries for d > 1, and exactly
// U1 for d = 1 (Lemma 4); asymptotically optimal (Theorem 4).
type SliceCover struct{}

// Name implements Crawler.
func (SliceCover) Name() string { return "slice-cover" }

// Crawl implements Crawler. The server's schema must be purely categorical.
func (SliceCover) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	if !srv.Schema().IsCategorical() {
		return &Result{}, ErrWrongSpace
	}
	return crawlSlices(ctx, srv, opts, true)
}

// LazySliceCover is slice-cover with the paper's laziness heuristic: slice
// queries are issued only when extended-DFS first needs them, and memoized
// so later consultations are free. It never issues more queries than
// slice-cover (Lemma 4 applies unchanged) and was the clear practical winner
// in the paper's Figure 11.
type LazySliceCover struct{}

// Name implements Crawler.
func (LazySliceCover) Name() string { return "lazy-slice-cover" }

// Crawl implements Crawler. The server's schema must be purely categorical.
func (LazySliceCover) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	if !srv.Schema().IsCategorical() {
		return &Result{}, ErrWrongSpace
	}
	return crawlSlices(ctx, srv, opts, false)
}

// sliceQuery builds the slice query "attr = value, wildcard elsewhere"
// (numeric attributes, present only under hybrid, get full ranges).
func sliceQuery(sch *dataspace.Schema, attr int, value int64) dataspace.Query {
	return dataspace.UniverseQuery(sch).WithValue(attr, value)
}

// crawlSlices runs hybrid over srv: lazy-slice-cover over the categorical
// prefix (all of a categorical schema) or, when eager is set, slice-cover.
func crawlSlices(ctx context.Context, srv hiddendb.Server, opts *Options, eager bool) (*Result, error) {
	sch, k := srv.Schema(), srv.K()
	cat := sch.Cat()
	// Memoized when there are slices: a repeated query is free (§3.2).
	return runSession(ctx, srv, opts, cat > 0, func(s *session) error {
		if eager {
			// Preprocessing phase: run every slice query up front.
			for i := 0; i < cat; i++ {
				for v := int64(1); v <= int64(sch.Attr(i).DomainSize); v++ {
					if _, err := s.Issue(sliceQuery(sch, i, v)); err != nil {
						return err
					}
				}
			}
		}
		if eager && cat > 1 {
			// The paper's trick: with every slice known, the root's query
			// is skipped. If some slice overflowed, the root overflows
			// too; if none did, extended-DFS answers every child locally.
			return extendedDFS(s, dataspace.UniverseQuery(sch), 0, cat, k)
		}
		return CrawlHybrid(s, sch, k)
	})
}

// extendedDFS explores the children of an overflowing data-space-tree node
// at the given level (0-based: the node has attributes 0..level-1 pinned).
// catDims is the number of leading categorical attributes; a child at depth
// catDims is a categorical point and is finished with rank-shrink, which
// degenerates to a single (necessarily resolved) point query in a purely
// categorical space. The children are independent, handed to the runner
// together.
//
// For each child, the slice response is consulted first: if the slice
// resolved, the child's answer is computed locally with no server
// round-trip (Lemma 3 guarantees the slice's bag contains the child's bag).
// The runner's memo makes every consultation after the first free.
func extendedDFS(r Runner, q dataspace.Query, level, catDims, k int) error {
	sch := q.Schema()
	return r.ForValues(sch.Attr(level).DomainSize, func(v int64) error {
		child := q.WithValue(level, v)
		slice, err := r.Issue(sliceQuery(sch, level, v))
		if err != nil {
			return err
		}
		if slice.Resolved() {
			// Answer locally: the child's result is the subset of the
			// slice's result satisfying the child's other predicates.
			r.EmitMatching(slice.Tuples, child)
			return nil
		}
		if level+1 == catDims {
			// Categorical point reached. Pure categorical: one point
			// query, which must resolve. Mixed (hybrid): rank-shrink over
			// the numeric subspace with the categorical prefix pinned.
			return rankShrink(r, child, k, 4)
		}
		res, err := r.Issue(child)
		if err != nil {
			return err
		}
		if res.Resolved() {
			r.Emit(res.Tuples)
			return nil
		}
		return extendedDFS(r, child, level+1, catDims, k)
	})
}
