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
// report progress after every server round-trip, which is what the
// progressiveness experiment (Figure 13) measures.
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

// InFlightAdaptive, assigned to Options.InFlight, makes the parallel
// crawler pick its pipeline depth itself: it starts at the default double
// buffer and widens by one whenever a full-width batch is ready while
// every flight slot is busy — the deterministic signal that one more
// overlapped round trip would save a full round trip of latency. When
// that signal stops, the widening stops: the measured savings have
// flattened. Only full-width batches ever launch through a widened slot,
// so widening launches the same batches earlier rather than launching
// thinner ones; the query count is untouched, as with any fixed depth.
const InFlightAdaptive = -1

// Options tunes a crawl. The zero value is ready to use.
type Options struct {
	// OnProgress, when non-nil, is invoked after every query that reaches
	// the server with the running totals. Calls are serialized — even the
	// parallel engine, whose round trips complete concurrently, never
	// invokes it from two goroutines at once — so the callback needs no
	// locking of its own.
	OnProgress func(CurvePoint)
	// OnTuples, when non-nil, is invoked with each chunk of newly
	// extracted tuples, in output order: the concatenation of all chunks
	// is exactly Result.Tuples. It is what lets a server stream a crawl's
	// output incrementally instead of buffering the whole bag. The chunk
	// is read-only and only valid during the call. With the parallel
	// crawler the callback must be safe for concurrent invocation.
	OnTuples func(dataspace.Bag)
	// QueryFilter, when non-nil, implements the attribute-dependency
	// heuristic of §1.3: a query for which it returns false is assumed to
	// cover no valid point and is skipped (treated as resolved and empty)
	// instead of being sent to the server. Supplying a filter that wrongly
	// rejects a non-empty region makes the crawl incomplete; that is the
	// caller's contract, exactly as in the paper.
	QueryFilter func(dataspace.Query) bool
	// CollectCurve records a CurvePoint per query into Result.Curve.
	CollectCurve bool
	// BatchSize caps how many ready queries the parallel crawler packs
	// into one Server.AnswerBatch round trip. Zero means the crawler's
	// worker count; a batch is wholly in flight while its round trip
	// runs, so values above the worker count are clamped to it. Batching
	// never changes the query count — a batch is answered as if issued
	// sequentially — only the number of round trips. Sequential crawlers
	// ignore it.
	BatchSize int
	// InFlight is the parallel crawler's pipeline depth: how many
	// AnswerBatch round trips it keeps in flight at once. While round
	// trips fly, the next batch accumulates and departs the moment a
	// flight slot frees — speculative double-buffering, which removes the
	// flush-on-completion bubble where a ready query always waited out the
	// round trip in front of it. 1 restores flush-on-completion; zero
	// defaults to 2 (or to workers/BatchSize when a narrowed batch width
	// would otherwise shrink the in-flight query bound below the worker
	// count); InFlightAdaptive lets the dispatcher widen the depth itself
	// while the widening keeps saving round-trip latency. Pipelining never
	// changes the query count, only round trips and wall clock. Sequential
	// crawlers ignore it.
	InFlight int
	// Clock, when non-nil, runs the parallel crawler's pipeline under the
	// given deterministic virtual clock: batches form and depart at
	// virtual instants, and with the server wrapped in
	// hiddendb.NewLatency on the same clock, the crawl's wall-clock
	// behaviour under any round-trip latency becomes a fast, reproducible
	// measurement (read it from SimClock.Now). Responses and query counts
	// are untouched. Use one clock per crawl; it is a *SimClock because
	// the pipeline keeps its hold count. Sequential crawlers ignore it —
	// a sequential crawl over a Latency server drives a SimClock itself.
	Clock *hiddendb.SimClock
}

// Result is the outcome of a crawl.
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
	// Curve is the progressiveness curve (only when CollectCurve is set).
	Curve []CurvePoint
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
	// contract's.
	Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error)
}

// session carries the shared machinery of one crawl: the crawl's context,
// the counting (and possibly memoized) view of the server, the output bag,
// and progress bookkeeping.
type session struct {
	ctx      context.Context
	srv      hiddendb.Server
	counting *hiddendb.Counting
	schema   *dataspace.Schema
	k        int
	opts     Options
	out      dataspace.Bag
	curve    []CurvePoint
	skipped  int
	// splitDenom parameterizes rank-shrink's 3-way-split threshold
	// (default 4, the paper's constant).
	splitDenom int
}

// splitThreshold returns the denominator of the 3-way-split threshold.
func (s *session) splitThreshold() int {
	if s.splitDenom <= 0 {
		return 4
	}
	return s.splitDenom
}

// newSession wraps srv in a counter and, when cached is true, a journal on
// top of the counter so repeated queries are free.
func newSession(ctx context.Context, srv hiddendb.Server, opts *Options, cached bool) *session {
	if opts == nil {
		opts = &Options{}
	}
	counting := hiddendb.NewCounting(srv)
	var view hiddendb.Server = counting
	if cached { // a journal built from srv's own schema and k always wraps it
		view, _ = journal.Wrap(counting, journal.New(srv.Schema(), srv.K()))
	}
	return &session{
		ctx:      ctx,
		srv:      view,
		counting: counting,
		schema:   srv.Schema(),
		k:        srv.K(),
		opts:     *opts,
	}
}

// emptyResult is the response used for queries suppressed by QueryFilter.
var emptyResult = hiddendb.Result{}

// issue sends q to the server (or suppresses it per the dependency
// heuristic) and records progress. The ctx is consulted first, so a
// cancelled crawl stops promptly even through a streak of free journal
// replays or suppressed queries.
func (s *session) issue(q dataspace.Query) (hiddendb.Result, error) {
	if err := s.ctx.Err(); err != nil {
		return emptyResult, err
	}
	if s.opts.QueryFilter != nil && !s.opts.QueryFilter(q) {
		s.skipped++
		return emptyResult, nil
	}
	before := s.counting.Queries()
	res, err := s.srv.Answer(s.ctx, q)
	if err != nil {
		return res, err
	}
	if s.counting.Queries() != before { // not a replay
		s.progress()
	}
	return res, nil
}

// emit appends fully-extracted tuples to the output bag.
func (s *session) emit(tuples dataspace.Bag) {
	s.out = append(s.out, tuples...)
	if s.opts.OnTuples != nil && len(tuples) > 0 {
		s.opts.OnTuples(tuples)
	}
}

// emitMatching appends the subset of tuples covered by q.
func (s *session) emitMatching(tuples dataspace.Bag, q dataspace.Query) {
	start := len(s.out)
	for _, t := range tuples {
		if q.Covers(t) {
			s.out = append(s.out, t)
		}
	}
	if s.opts.OnTuples != nil && len(s.out) > start {
		s.opts.OnTuples(s.out[start:len(s.out):len(s.out)])
	}
}

func (s *session) progress() {
	p := CurvePoint{Queries: s.counting.Queries(), Tuples: len(s.out)}
	if s.opts.CollectCurve {
		s.curve = append(s.curve, p)
	}
	if s.opts.OnProgress != nil {
		s.opts.OnProgress(p)
	}
}

// finish assembles the Result.
func (s *session) finish() *Result {
	// The last curve point may predate the final emits; refresh it.
	if s.opts.CollectCurve && len(s.curve) > 0 {
		s.curve[len(s.curve)-1].Tuples = len(s.out)
	}
	return &Result{
		Tuples:     s.out,
		Queries:    s.counting.Queries(),
		Resolved:   s.counting.Resolved(),
		Overflowed: s.counting.Overflowed(),
		Skipped:    s.skipped,
		Curve:      s.curve,
	}
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
