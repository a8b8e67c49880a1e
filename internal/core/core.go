// Package core implements the hidden-database crawling algorithms of
// Sheng, Zhang, Tao and Jin, "Optimal Algorithms for Crawling a Hidden
// Database in the Web" (PVLDB 5(11), 2012):
//
//   - binary-shrink — the midpoint-splitting baseline for numeric spaces
//     (§2.1); its cost depends on the attribute domain sizes.
//   - rank-shrink — the optimal numeric algorithm (§2.2–2.3), O(d·n/k)
//     queries.
//   - DFS — the data-space-tree baseline for categorical spaces (§3.1).
//   - slice-cover and lazy-slice-cover — the optimal categorical
//     algorithms (§3.2), at most Σ Ui + (n/k)·Σ min{Ui, n/k} queries.
//   - hybrid — the mixed-space algorithm (§5) combining lazy-slice-cover
//     over the categorical prefix with rank-shrink over the numeric
//     subspaces.
//
// Every crawler consumes a hiddendb.Server and returns the complete bag of
// tuples plus the query cost, the paper's efficiency metric. All crawlers
// report progress after every paid query, which is what the
// progressiveness experiment (Figure 13) measures. One Books per crawl,
// a decorator directly above the server, keeps those numbers for the
// sequential and the parallel crawlers alike: the counts, the QueryFilter
// skips and the output bag. It also calls Options' three callbacks, the
// crawl's whole contract with its caller, one call at a time and in
// order. A failed crawl returns its books as a partial Result.
//
// Hybrid's recursion (and with it rank-shrink, slice-cover and
// lazy-slice-cover) is written once, over a Runner that issues queries,
// emits tuples and schedules independent sub-problems. The sequential
// crawlers run it on an in-order Runner; the parallel package runs the
// same recursion, through CrawlHybrid, on a concurrent one.
package core

import (
	"context"
	"errors"
	"fmt"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// ErrUnsolvable is returned when a point query overflows: some point of the
// data space holds more than k identical tuples, so no algorithm can
// retrieve the full bag (§1.1). This is exactly why the paper reports no
// Yahoo! Autos value at k = 64 in Figure 12.
var ErrUnsolvable = errors.New("core: dataset has a point with more than k duplicate tuples; Problem 1 is unsolvable")

// ErrWrongSpace is returned when an algorithm is run on a data space it does
// not support (e.g. rank-shrink on categorical attributes).
var ErrWrongSpace = errors.New("core: algorithm does not support this data space")

// CurvePoint is one sample of the progressiveness curve: after Queries
// server queries, Tuples tuples had been output.
type CurvePoint struct {
	Queries int
	Tuples  int
}

// Options holds the three callbacks every crawler honours. The zero value
// is ready to use. A crawl's Books call each callback one call at a time,
// for the sequential and the parallel crawlers alike, so none needs
// locking of its own.
type Options struct {
	// OnProgress, when non-nil, is invoked after every query that reaches
	// the server with the running totals: each call's Queries is the
	// previous call's plus one, ending at Result.Queries, and Tuples never
	// decreases. Collecting the points gives the progressiveness curve of
	// Figure 13; the last point's Tuples may predate the crawl's final
	// emits (see progress.Normalize). It runs under the lock that counted
	// the query, so a slow callback delays the crawl's bookkeeping, not its
	// round trips in flight.
	OnProgress func(CurvePoint)
	// OnTuples, when non-nil, is invoked with each chunk of newly
	// extracted tuples, in output order: the concatenation of all chunks
	// is exactly Result.Tuples. It is what lets a server stream a crawl's
	// output incrementally instead of buffering the whole bag. The chunk
	// is read-only and only valid during the call. It runs under its own
	// lock, so a slow consumer holds up the crawl's other emits but never
	// its counting or OnProgress.
	OnTuples func(dataspace.Bag)
	// QueryFilter, when non-nil, implements the attribute-dependency
	// heuristic of §1.3: a query for which it returns false is assumed to
	// cover no valid point and is skipped (treated as resolved and empty)
	// instead of being sent to the server. Supplying a filter that wrongly
	// rejects a non-empty region makes the crawl incomplete; that is the
	// caller's contract, exactly as in the paper. It runs under the lock
	// that counts queries, so it never overlaps OnProgress.
	QueryFilter func(dataspace.Query) bool
}

// Result is the outcome of a crawl. A failed crawl returns the partial
// Result with its error: the tuples extracted and the queries paid before
// it stopped.
type Result struct {
	// Tuples is the reconstructed bag: exactly the server's hidden
	// database when the crawl succeeds.
	Tuples dataspace.Bag
	// Queries is the number of queries that reached the server — the
	// paper's cost metric. Cache hits (lazy-slice-cover consulting a
	// memoized slice) are free, matching §3.2.
	Queries int
	// Resolved and Overflowed split Queries by server outcome.
	Resolved, Overflowed int
	// Skipped counts queries suppressed by Options.QueryFilter.
	Skipped int
}

// Crawler is a complete-extraction algorithm for Problem 1.
type Crawler interface {
	// Name returns the algorithm's name as used in the paper.
	Name() string
	// Crawl retrieves the entire hidden database behind srv. Cancelling
	// ctx stops the crawl between queries with the ctx's error; queries
	// already answered were paid for (and, behind a journal wrapper,
	// recorded), so a cancelled crawl resumes where it stopped.
	// Cancellation never changes which queries a completing crawl issues —
	// with a live ctx the query count is bit-identical to the pre-context
	// contract's. Every crawler of this package and of package parallel
	// returns a non-nil Result, partial when err is non-nil.
	Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error)
}

// session is the sequential Runner: parts and values run one after
// another, in order. Its queries go through the crawl's books, behind a
// journal when the crawl is memoized, so a replay never reaches the
// books; the books also collect its output.
type session struct {
	*Books
	ctx context.Context
	srv hiddendb.Server
}

// runSession runs body on a fresh session over srv and returns the
// session's books with body's error: the whole Result, or the partial one
// of a failed crawl. When cached is true a journal sits in front of the
// books, so repeated queries are free.
func runSession(ctx context.Context, srv hiddendb.Server, opts *Options, cached bool, body func(*session) error) (*Result, error) {
	books := NewBooks(srv, opts)
	s := &session{Books: books, ctx: ctx, srv: books}
	if cached { // a journal built from srv's own schema and k always wraps it
		s.srv, _ = journal.Wrap(books, journal.New(srv.Schema(), srv.K()))
	}
	err := body(s)
	return books.Result(), err
}

// emptyResult is the response used for queries suppressed by QueryFilter.
var emptyResult = hiddendb.Result{}

// Issue sends q to the server, unless the dependency heuristic skips it.
// The ctx is consulted first, so a cancelled crawl stops promptly even
// through a streak of free journal replays or suppressed queries.
func (s *session) Issue(q dataspace.Query) (hiddendb.Result, error) {
	if err := s.ctx.Err(); err != nil {
		return emptyResult, err
	}
	if s.Skip(q) {
		return emptyResult, nil
	}
	return s.srv.Answer(s.ctx, q)
}

// Split solves the parts in order, stopping at the first error.
func (s *session) Split(parts []dataspace.Query, solve func(dataspace.Query) error) error {
	for _, q := range parts {
		if err := solve(q); err != nil {
			return err
		}
	}
	return nil
}

// ForValues runs f(1), …, f(u) in order, stopping at the first error.
func (s *session) ForValues(u int, f func(v int64) error) error {
	for v := int64(1); v <= int64(u); v++ {
		if err := f(v); err != nil {
			return err
		}
	}
	return nil
}

// firstOpenNumeric returns the index of the first numeric attribute whose
// extent in q still spans more than one value, or -1.
func firstOpenNumeric(q dataspace.Query) int {
	sch := q.Schema()
	for i := 0; i < sch.Dims(); i++ {
		if sch.Attr(i).Kind == dataspace.Numeric && !q.Exhausted(i) {
			return i
		}
	}
	return -1
}

// ByName returns the crawler with the given paper name.
func ByName(name string) (Crawler, error) {
	switch name {
	case "binary-shrink":
		return BinaryShrink{}, nil
	case "rank-shrink":
		return RankShrink{}, nil
	case "dfs":
		return DFS{}, nil
	case "slice-cover":
		return SliceCover{}, nil
	case "lazy-slice-cover":
		return LazySliceCover{}, nil
	case "hybrid":
		return Hybrid{}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (want binary-shrink, rank-shrink, dfs, slice-cover, lazy-slice-cover or hybrid)", name)
	}
}

// Names lists the available algorithm names.
func Names() []string {
	return []string{"binary-shrink", "rank-shrink", "dfs", "slice-cover", "lazy-slice-cover", "hybrid"}
}

// ForSchema returns the paper's recommended algorithm for the schema:
// rank-shrink for numeric spaces, lazy-slice-cover for categorical spaces,
// hybrid for mixed ones.
func ForSchema(s *dataspace.Schema) Crawler {
	switch {
	case s.IsNumeric():
		return RankShrink{}
	case s.IsCategorical():
		return LazySliceCover{}
	default:
		return Hybrid{}
	}
}
