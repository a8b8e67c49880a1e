package core

import (
	"context"
	"sync"
	"sync/atomic"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// Books keeps the books of one crawl: the query counts and OnProgress,
// the QueryFilter skips, and the output bag and OnTuples, closed into the
// crawl's Result. It is a hiddendb.Server that sits directly above the
// server the crawl was handed, so every answer it sees was paid for: a
// memo in front of it (the sequential session's journal, the parallel
// batcher's single-flight) keeps replays away from it. Both crawlers keep
// their books in one: the sequential session and the parallel pool alike.
//
// Books is safe for concurrent use, and calls each of Options' callbacks
// one call at a time. The counting lock is held from a query's count
// through its OnProgress call, so OnProgress sees running totals in count
// order; QueryFilter runs under the same lock. The emit lock is held from
// an append to the bag through its OnTuples call, so the chunks arrive in
// bag order. A slow OnTuples consumer thus holds up other emits, never
// counting or OnProgress, and the round trips themselves run unserialized
// below.
type Books struct {
	inner hiddendb.Server
	opts  Options

	mu  sync.Mutex // the counting lock
	res Result     // the counts; res.Tuples is unused

	emitMu sync.Mutex // the emit lock
	tuples dataspace.Bag
	// emitted is len(tuples), for OnProgress to read under the counting
	// lock alone.
	emitted atomic.Int64
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
// prefix of a failed batch included, is counted and reported to
// OnProgress, in order.
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
		if b.opts.OnProgress != nil {
			b.opts.OnProgress(CurvePoint{Queries: b.res.Queries, Tuples: int(b.emitted.Load())})
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
	if b.opts.QueryFilter == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opts.QueryFilter(q) {
		return false
	}
	b.res.Skipped++
	return true
}

// Emit appends fully extracted tuples to the bag and hands them to
// OnTuples.
func (b *Books) Emit(tuples dataspace.Bag) {
	if len(tuples) == 0 {
		return
	}
	b.emitMu.Lock()
	defer b.emitMu.Unlock()
	b.tuples = append(b.tuples, tuples...)
	b.emitted.Store(int64(len(b.tuples)))
	if b.opts.OnTuples != nil {
		b.opts.OnTuples(tuples)
	}
}

// EmitMatching appends the subset of tuples covered by q. The kept chunk
// handed to OnTuples is the bag's own tail, capped, so later appends never
// write into it.
func (b *Books) EmitMatching(tuples dataspace.Bag, q dataspace.Query) {
	b.emitMu.Lock()
	defer b.emitMu.Unlock()
	start := len(b.tuples)
	for _, t := range tuples {
		if q.Covers(t) {
			b.tuples = append(b.tuples, t)
		}
	}
	end := len(b.tuples)
	b.emitted.Store(int64(end))
	if b.opts.OnTuples != nil && end > start {
		b.opts.OnTuples(b.tuples[start:end:end])
	}
}

// Result closes the books: the whole crawl's Result once it has
// succeeded, the partial one, with the queries already paid, when it
// failed.
func (b *Books) Result() *Result {
	b.mu.Lock()
	res := b.res
	b.mu.Unlock()
	b.emitMu.Lock()
	res.Tuples = b.tuples
	b.emitMu.Unlock()
	return &res
}
