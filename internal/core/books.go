package core

import (
	"context"
	"sync"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// Books keeps the books of one crawl: the query counts, the
// progressiveness curve and OnProgress, the QueryFilter skips and the
// output bag, closed into the crawl's Result. It is a hiddendb.Server
// that sits directly above the server the crawl was handed, so every
// answer it sees was paid for: a memo in front of it (the sequential
// session's journal, the parallel batcher's single-flight) keeps replays
// away from it. Both crawlers keep their books in one: the sequential
// session and the parallel pool alike.
//
// Books is safe for concurrent use. The lock is held from a query's
// count through its OnProgress call, so the callbacks are serialized and
// see running totals in count order, while the round trips themselves
// run unserialized below.
type Books struct {
	inner hiddendb.Server
	opts  Options

	mu  sync.Mutex
	res Result
}

// NewBooks opens the books of a crawl over srv; opts may be nil.
func NewBooks(srv hiddendb.Server, opts *Options) *Books {
	b := &Books{inner: srv}
	if opts != nil {
		b.opts = *opts
	}
	return b
}

// Answer implements hiddendb.Server as a one-query batch.
func (b *Books) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, b, q)
}

// AnswerBatch implements hiddendb.Server. Every answered query, the
// prefix of a failed batch included, is counted, sampled into the curve
// and reported to OnProgress, in order.
func (b *Books) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	results, err := b.inner.AnswerBatch(ctx, qs)
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range results {
		b.res.Queries++
		if r.Overflow {
			b.res.Overflowed++
		} else {
			b.res.Resolved++
		}
		p := CurvePoint{Queries: b.res.Queries, Tuples: len(b.res.Tuples)}
		if b.opts.CollectCurve {
			b.res.Curve = append(b.res.Curve, p)
		}
		if b.opts.OnProgress != nil {
			b.opts.OnProgress(p)
		}
	}
	return results, err
}

// K implements hiddendb.Server.
func (b *Books) K() int { return b.inner.K() }

// Schema implements hiddendb.Server.
func (b *Books) Schema() *dataspace.Schema { return b.inner.Schema() }

// Skip reports whether Options.QueryFilter rejects q (the dependency
// heuristic of §1.3), counting the skip: the query is then treated as
// resolved and empty, and never sent.
func (b *Books) Skip(q dataspace.Query) bool {
	if b.opts.QueryFilter == nil || b.opts.QueryFilter(q) {
		return false
	}
	b.mu.Lock()
	b.res.Skipped++
	b.mu.Unlock()
	return true
}

// Emit appends fully extracted tuples to the bag and hands them to
// OnTuples.
func (b *Books) Emit(tuples dataspace.Bag) {
	if len(tuples) == 0 {
		return
	}
	b.mu.Lock()
	b.res.Tuples = append(b.res.Tuples, tuples...)
	b.mu.Unlock()
	if b.opts.OnTuples != nil {
		b.opts.OnTuples(tuples)
	}
}

// EmitMatching appends the subset of tuples covered by q. The kept chunk
// handed to OnTuples is the bag's own tail, capped, so later appends never
// write into it.
func (b *Books) EmitMatching(tuples dataspace.Bag, q dataspace.Query) {
	b.mu.Lock()
	start := len(b.res.Tuples)
	for _, t := range tuples {
		if q.Covers(t) {
			b.res.Tuples = append(b.res.Tuples, t)
		}
	}
	end := len(b.res.Tuples)
	kept := b.res.Tuples[start:end:end]
	b.mu.Unlock()
	if b.opts.OnTuples != nil && len(kept) > 0 {
		b.opts.OnTuples(kept)
	}
}

// Result closes the books: the whole crawl's Result once it has
// succeeded, the partial one, with the queries already paid, when it
// failed.
func (b *Books) Result() *Result {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The last curve point may predate the final emits; refresh it.
	if n := len(b.res.Curve); n > 0 {
		b.res.Curve[n-1].Tuples = len(b.res.Tuples)
	}
	res := b.res
	return &res
}
