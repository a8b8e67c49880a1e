// Package parallel runs core's hybrid crawl with many queries in flight at
// once. The paper's cost metric is the number of queries, not wall-clock
// time — but a real crawl pays a network round-trip per query, and the
// hybrid recursion's sub-problems (the parts of a rank-shrink split, the
// children of a data-space-tree node) are mutually independent. The
// package's pool is a core.Runner that runs each of them as a task, and
// core.CrawlHybrid drives it: the algorithm itself lives only in core.
// Executing the sub-problems concurrently leaves the set of issued queries
// exactly equal to the sequential crawl's (each region's fate depends only
// on its own response, and a singleflight memo table deduplicates slice
// queries), so the query cost is unchanged while wall-clock time divides
// by the worker count.
//
// Concurrent sub-problems do not issue their queries one at a time: ready
// queries are drained into batches and sent through Server.AnswerBatch, so
// B concurrently ready queries cost a single round trip. Because a batch is
// answered exactly as if issued sequentially, this changes neither the
// query count nor any response — only the number of round trips, which
// shrinks by roughly the batch width (Crawler.Workers). The batcher packs
// the batches, single-flights repeated queries and keeps the virtual
// clock's holds; the counting is left to the crawl's core.Books, which sit
// between the batcher and the server exactly as they sit below a
// sequential crawl's journal: they count every paid query, report progress
// in count order, apply QueryFilter and collect the output.
//
// Batches are dispatched speculatively, double-buffered: up to
// Crawler.InFlight round trips (default 2) overlap, and the next batch
// departs the moment a flight slot is free instead of waiting for the
// previous round trip to complete — see batcher. Workers and InFlight are
// the pipeline's only two settings. With a hiddendb.SimClock in
// Crawler.Clock (and hiddendb.Latency on it) the whole pipeline runs
// under deterministic virtual time, which is how the latency ablation
// measures wall clock reproducibly without sleeping. The crawl's Options
// are the sequential crawlers' own, and its books call them the same way:
// one call at a time, OnProgress in count order and OnTuples in output
// order.
package parallel

import (
	"context"
	"fmt"
	"sync"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// Crawler runs hybrid (and its degenerate numeric/categorical forms) with
// many queries in flight. It implements core.Crawler.
type Crawler struct {
	// Workers is the width of one AnswerBatch round trip: the largest
	// batch a single round trip may carry. Up to InFlight round trips
	// overlap, so at most Workers × InFlight queries are in flight at
	// once. Zero or one degenerates to (a pipelined equivalent of) the
	// sequential algorithm.
	Workers int
	// InFlight is the pipeline depth: how many AnswerBatch round trips
	// the crawl keeps in flight at once, each carrying up to Workers
	// queries. While round trips fly, the next batch accumulates and
	// departs the moment a flight slot frees — speculative
	// double-buffering, which removes the flush-on-completion bubble
	// where a ready query always waited out the round trip in front of
	// it. Zero (or less) defaults to 2; 1 restores flush-on-completion.
	// Pipelining never changes the query count, only round trips and wall
	// clock.
	InFlight int
	// Clock, when non-nil, runs the pipeline under the given
	// deterministic virtual clock: batches form and depart at virtual
	// instants, and with the server wrapped in hiddendb.NewLatency on the
	// same clock, the crawl's wall-clock behaviour under any round-trip
	// latency becomes a fast, reproducible measurement (read it from
	// SimClock.Now). Responses and query counts are untouched. Use one
	// clock per crawl; it is a *SimClock because the pipeline keeps its
	// hold count.
	Clock *hiddendb.SimClock
}

// Name implements core.Crawler.
func (c Crawler) Name() string {
	return fmt.Sprintf("parallel-hybrid(%d)", c.workers())
}

func (c Crawler) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Crawl implements core.Crawler, honouring opts as the sequential
// crawlers do. The books sit directly above srv, below the batcher.
// Cancelling ctx aborts the crawl: the in-flight batches are cancelled
// through the server (their answered prefixes are still counted and, in
// a journaled stack, recorded), the workers drain, and the ctx's error is
// returned with the partial Result.
func (c Crawler) Crawl(ctx context.Context, srv hiddendb.Server, opts *core.Options) (*core.Result, error) {
	depth := c.InFlight
	if depth <= 0 {
		depth = 2 // the double buffer
	}
	books := core.NewBooks(srv, opts)
	b := newBatcher(ctx, books, c.workers(), depth, c.Clock)
	defer b.close()
	p := &pool{Books: books, srv: b, clock: c.Clock, quit: make(chan struct{})}
	sch, k := srv.Schema(), srv.K()
	p.spawn(func() error { return core.CrawlHybrid(p, sch, k) })
	p.wg.Wait()
	return books.Result(), p.err
}

// pool carries the shared state of one parallel crawl. It is the
// concurrent core.Runner: every independent sub-problem the recursion hands
// it becomes a task, its queries go through the batcher, and its output
// goes to the crawl's books.
type pool struct {
	*core.Books
	srv   *batcher
	clock *hiddendb.SimClock // nil outside virtual-time simulations

	wg sync.WaitGroup

	errOnce sync.Once
	err     error
	quit    chan struct{}
}

// failed reports whether the crawl has aborted.
func (p *pool) failed() bool {
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

func (p *pool) fail(err error) {
	p.errOnce.Do(func() {
		p.err = err
		close(p.quit)
	})
}

// spawn runs f as a tracked task, recording its error. Under a virtual
// clock the task's hold is minted by the spawner, before the goroutine
// exists, so the hold count can never dip to zero between the decision to
// spawn and the task starting to run.
func (p *pool) spawn(f func() error) {
	p.wg.Add(1)
	p.clock.Hold()
	go func() {
		defer p.wg.Done()
		defer p.clock.Release()
		if p.failed() {
			return
		}
		if err := f(); err != nil {
			p.fail(err)
		}
	}()
}

// Issue implements core.Runner through the batcher, unless the
// dependency heuristic skips q.
func (p *pool) Issue(q dataspace.Query) (hiddendb.Result, error) {
	if p.Skip(q) {
		return hiddendb.Result{}, nil
	}
	return p.srv.Answer(q)
}

// Split implements core.Runner: every part but the last becomes a task,
// and the caller goes on with the last.
func (p *pool) Split(parts []dataspace.Query, solve func(dataspace.Query) error) error {
	last := len(parts) - 1
	for _, q := range parts[:last] {
		p.spawn(func() error { return solve(q) })
	}
	return solve(parts[last])
}

// ForValues implements core.Runner: f(v) for v in 1..u runs as tasks of
// 128 values each, so that a 29,042-value domain does not spawn 29,042
// goroutines. It returns once the tasks are spawned.
func (p *pool) ForValues(u int, f func(v int64) error) error {
	const chunk = 128
	for lo := 1; lo <= u; lo += chunk {
		hi := min(lo+chunk-1, u)
		p.spawn(func() error {
			for v := lo; v <= hi; v++ {
				if p.failed() {
					return nil
				}
				if err := f(int64(v)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return nil
}
