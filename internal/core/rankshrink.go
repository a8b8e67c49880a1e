package core

import (
	"context"
	"fmt"
	"slices"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// RankShrink is the paper's optimal algorithm for numeric data spaces
// (§2.2–2.3). Instead of splitting an overflowing rectangle at its
// geometric midpoint, it splits at the value of the (k/2)-th returned tuple,
// guaranteeing at least k/4 returned tuples on each side (a 2-way split) —
// or, when that value has multiplicity above k/4 in the response, performs a
// 3-way split whose middle band exhausts the split attribute and is solved
// as a (d−1)-dimensional sub-problem.
//
// Cost: O(d·n/k) queries (Lemma 2), independent of the attribute domain
// sizes, and asymptotically optimal (Theorem 3).
type RankShrink struct {
	// SplitDenom is the denominator of the multiplicity threshold that
	// chooses between a 2-way and a 3-way split: a 3-way split fires when
	// the pivot value's multiplicity in the response exceeds k/SplitDenom.
	// Zero means the paper's constant 4 (which the cost proof of Lemma 1
	// relies on); other values exist for the ablation study.
	SplitDenom int
}

// Name implements Crawler.
func (r RankShrink) Name() string {
	if r.SplitDenom != 0 && r.SplitDenom != 4 {
		return fmt.Sprintf("rank-shrink(k/%d)", r.SplitDenom)
	}
	return "rank-shrink"
}

// Crawl implements Crawler. The server's schema must be purely numeric.
func (r RankShrink) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	if !srv.Schema().IsNumeric() {
		return &Result{}, ErrWrongSpace
	}
	denom := r.SplitDenom
	if denom <= 0 {
		denom = 4
	}
	return runSession(ctx, srv, opts, false, func(s *session) error {
		return rankShrink(s, dataspace.UniverseQuery(srv.Schema()), srv.K(), denom)
	})
}

// rankShrink extracts every tuple covered by q. All categorical attributes
// of q (if any — the hybrid algorithm pins them) must be exhausted; the
// remaining free dimensions are numeric. A 3-way split fires when the
// pivot's multiplicity exceeds k/denom. The parts of a split are
// independent sub-problems, handed to the runner together.
func rankShrink(r Runner, q dataspace.Query, k, denom int) error {
	res, err := r.Issue(q)
	if err != nil {
		return err
	}
	if res.Resolved() {
		r.Emit(res.Tuples)
		return nil
	}

	// The paper splits on A1 until it is exhausted, then recurses on the
	// (d−1)-dimensional suffix; equivalently, always split the first
	// non-exhausted numeric attribute.
	dim := firstOpenNumeric(q)
	if dim < 0 {
		// q is a point (up to exhausted attributes) yet overflowed: more
		// than k duplicates live there.
		return ErrUnsolvable
	}

	x, c := splitPivot(res.Tuples, dim, k)
	lo, _ := q.Extent(dim)
	solve := func(part dataspace.Query) error { return rankShrink(r, part, k, denom) }

	if c <= k/denom && x > lo {
		// Case 1: 2-way split at x. At least k/2−c ≥ k/4 returned tuples
		// are strictly below x, so x > lo always holds when k ≥ 4; the
		// guard only matters for degenerate k.
		left, right, err := q.Split2(dim, x)
		if err != nil {
			return err
		}
		return r.Split([]dataspace.Query{left, right}, solve)
	}

	// Case 2: 3-way split at x. The middle band exhausts dim and becomes a
	// (d−1)-dimensional problem; at d = 1 it is a point query, resolved by
	// the solvability assumption.
	left, mid, right, hasLeft, hasRight, err := q.Split3(dim, x)
	if err != nil {
		return err
	}
	parts := make([]dataspace.Query, 0, 3)
	if hasLeft {
		parts = append(parts, left)
	}
	parts = append(parts, mid)
	if hasRight {
		parts = append(parts, right)
	}
	return r.Split(parts, solve)
}

// splitPivot sorts the response on attribute dim, picks the value x of the
// (k/2)-th tuple (1-based; the paper breaks ties arbitrarily) and returns it
// together with its multiplicity c in the response.
func splitPivot(resp dataspace.Bag, dim, k int) (x int64, c int) {
	vals := make([]int64, len(resp))
	for i, t := range resp {
		vals[i] = t[dim]
	}
	slices.Sort(vals)
	idx := k/2 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	x = vals[idx]
	for _, v := range vals {
		if v == x {
			c++
		}
	}
	return x, c
}
