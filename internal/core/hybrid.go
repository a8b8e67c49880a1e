package core

import (
	"context"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// Hybrid is the paper's algorithm for mixed data spaces (§5): it runs
// lazy-slice-cover over the categorical prefix (with every numeric predicate
// pinned to the full range, emulating a categorical server) and, upon
// reaching a categorical point whose slice could not answer it locally,
// invokes rank-shrink over the numeric subspace with the categorical
// coordinates fixed (emulating a numeric server).
//
// Cost (Lemma 9): (n/k)·Σ min{Ui, n/k} + Σ Ui + O((d−cat)·n/k) for cat > 1,
// and U1 + O(d·n/k) for cat = 1. Degenerate cases are handled naturally:
// cat = 0 is exactly rank-shrink and cat = d exactly lazy-slice-cover.
type Hybrid struct {
	// EagerSlices switches the categorical phase from lazy-slice-cover to
	// eager slice-cover (all slice queries issued up front). The paper's
	// hybrid uses the lazy variant; the eager one exists for the ablation
	// study.
	EagerSlices bool
}

// Name implements Crawler.
func (h Hybrid) Name() string {
	if h.EagerSlices {
		return "hybrid-eager"
	}
	return "hybrid"
}

// Crawl implements Crawler. Any schema is accepted.
func (h Hybrid) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	return crawlSlices(ctx, srv, opts, h.EagerSlices)
}

// Runner executes the steps of the hybrid recursion. The recursion itself
// (CrawlHybrid, rank-shrink, extended-DFS) is written once, over a Runner;
// a Runner decides only how its independent sub-problems are scheduled.
// The sequential session runs them in order; a concurrent Runner may run
// them at once, provided every Issue is answered exactly as the sequential
// crawl would have it answered, so the set of queries issued is the same.
type Runner interface {
	// Issue answers q (a repeated query may be answered from a memo).
	Issue(q dataspace.Query) (hiddendb.Result, error)
	// Emit outputs fully extracted tuples.
	Emit(tuples dataspace.Bag)
	// EmitMatching outputs the tuples covered by q.
	EmitMatching(tuples dataspace.Bag, q dataspace.Query)
	// Split solves the disjoint parts of a rank-shrink split.
	Split(parts []dataspace.Query, solve func(dataspace.Query) error) error
	// ForValues runs f(v) for every v in 1..u: the independent children
	// of a data-space-tree node.
	ForValues(u int, f func(v int64) error) error
}

// CrawlHybrid runs the paper's (lazy) hybrid on r over a server with the
// given schema and answer limit k: rank-shrink when no attribute is
// categorical (cat = 0); one slice query per A1 value, each overflowing
// one finished by rank-shrink, when cat = 1 (Theorem 1's fourth bullet,
// cost U1 + O(d·n/k)); otherwise the root query and then extended-DFS.
func CrawlHybrid(r Runner, sch *dataspace.Schema, k int) error {
	root := dataspace.UniverseQuery(sch)
	switch cat := sch.Cat(); cat {
	case 0:
		return rankShrink(r, root, k, 4)
	case 1:
		return r.ForValues(sch.Attr(0).DomainSize, func(v int64) error {
			q := root.WithValue(0, v)
			res, err := r.Issue(q)
			if err != nil {
				return err
			}
			if res.Resolved() {
				r.Emit(res.Tuples)
				return nil
			}
			return rankShrink(r, q, k, 4)
		})
	default:
		res, err := r.Issue(root)
		if err != nil {
			return err
		}
		if res.Resolved() {
			r.Emit(res.Tuples)
			return nil
		}
		return extendedDFS(r, root, 0, cat, k)
	}
}
