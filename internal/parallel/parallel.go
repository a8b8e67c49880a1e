// Package parallel runs the paper's crawling algorithms with many queries
// in flight at once. The paper's cost metric is the number of queries, not
// wall-clock time — but a real crawl pays a network round-trip per query,
// and the algorithms' sub-problems (the rectangles produced by a split, the
// children of a data-space-tree node, the per-point numeric sub-crawls of
// hybrid) are mutually independent. Executing them concurrently leaves the
// set of issued queries exactly equal to the sequential algorithms' (each
// region's fate depends only on its own response, and a singleflight memo
// table deduplicates slice queries), so the query cost is unchanged while
// wall-clock time divides by the worker count.
//
// Concurrent sub-problems do not issue their queries one at a time: ready
// queries are drained into batches and sent through Server.AnswerBatch, so
// B concurrently ready queries cost a single round trip. Because a batch is
// answered exactly as if issued sequentially, this changes neither the
// query count nor any response — only the number of round trips, which
// shrinks by roughly the batch size (Options.BatchSize, defaulting to the
// worker count).
//
// Batches are dispatched speculatively, double-buffered: up to
// Options.InFlight round trips (default 2) overlap, and the next batch
// departs the moment a flight slot is free instead of waiting for the
// previous round trip to complete — see batcher. With a
// hiddendb.SimClock in Options.Clock (and hiddendb.Latency on it) the
// whole pipeline runs under deterministic virtual time, which is how the
// latency ablation measures wall clock reproducibly without sleeping.
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
	// batch a single round trip may carry (unless Options.BatchSize lowers
	// it). Up to Options.InFlight round trips (default 2) overlap, so at
	// most Workers × InFlight queries are in flight at once. Zero or one
	// degenerates to (a pipelined equivalent of) the sequential algorithm.
	Workers int
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

// Crawl implements core.Crawler. Options are honoured; OnProgress and
// QueryFilter callbacks must be safe for concurrent invocation.
// Cancelling ctx aborts the crawl: the in-flight batches are cancelled
// through the server (their answered prefixes are still counted and, in a
// journaled stack, recorded), the workers drain, and the ctx's error is
// returned.
func (c Crawler) Crawl(ctx context.Context, srv hiddendb.Server, opts *core.Options) (*core.Result, error) {
	if opts == nil {
		opts = &core.Options{}
	}
	maxBatch := opts.BatchSize
	if maxBatch <= 0 || maxBatch > c.workers() {
		maxBatch = c.workers()
	}
	depth := opts.InFlight
	adaptive := depth == core.InFlightAdaptive
	if depth <= 0 {
		// Double-buffer by default; with a narrowed batch width, keep at
		// least Workers queries in flight (the pre-pipelining bound) by
		// deepening the pipeline to compensate. Adaptive mode starts from
		// the same default and widens on demand (see batcher).
		depth = max(2, (c.workers()+maxBatch-1)/maxBatch)
	}
	b := newBatcher(ctx, srv, maxBatch, depth, adaptive, opts.Clock, opts)
	defer b.close()
	p := &pool{
		srv:    b,
		clock:  opts.Clock,
		schema: srv.Schema(),
		k:      srv.K(),
		opts:   opts,
		quit:   make(chan struct{}),
	}
	cat := p.schema.Cat()

	// Under a virtual clock the crawl's root goroutine counts as runnable
	// until it has finished seeding tasks; without the hold, the clock
	// could advance while the first spawns are still being set up.
	p.clock.Hold()

	if cat == 0 {
		p.spawn(func() error { return p.rankShrink(dataspace.UniverseQuery(p.schema)) })
	} else if cat == 1 {
		// Theorem 1's cat = 1 case: one slice query per A1 value, each
		// overflowing one finished by rank-shrink — all independent.
		u := p.schema.Attr(0).DomainSize
		p.spawnChildren(int64(u), func(v int64) error {
			q := dataspace.UniverseQuery(p.schema).WithValue(0, v)
			res, err := p.srv.Answer(q)
			if err != nil {
				return err
			}
			if res.Resolved() {
				p.emit(res.Tuples)
				return nil
			}
			return p.rankShrink(q)
		})
	} else {
		root := dataspace.UniverseQuery(p.schema)
		p.spawn(func() error {
			res, err := p.srv.Answer(root)
			if err != nil {
				return err
			}
			if res.Resolved() {
				p.emit(res.Tuples)
				return nil
			}
			return p.node(root, 0, cat)
		})
	}

	p.clock.Release()
	p.wg.Wait()
	if p.err != nil {
		return nil, p.err
	}
	return p.finish(), nil
}

// pool carries the shared state of one parallel crawl.
type pool struct {
	srv    *batcher
	clock  *hiddendb.SimClock // nil outside virtual-time simulations
	schema *dataspace.Schema
	k      int
	opts   *core.Options

	wg sync.WaitGroup

	outMu sync.Mutex
	out   dataspace.Bag

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

// spawnChildren fans out f(v) for v in 1..u, chunked so that a 29,042-value
// domain does not spawn 29,042 goroutines.
func (p *pool) spawnChildren(u int64, f func(v int64) error) {
	const chunk = 128
	for lo := int64(1); lo <= u; lo += chunk {
		hi := lo + chunk - 1
		if hi > u {
			hi = u
		}
		lo, hi := lo, hi
		p.spawn(func() error {
			for v := lo; v <= hi; v++ {
				if p.failed() {
					return nil
				}
				if err := f(v); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func (p *pool) emit(tuples dataspace.Bag) {
	if len(tuples) == 0 {
		return
	}
	p.outMu.Lock()
	p.out = append(p.out, tuples...)
	p.outMu.Unlock()
	p.srv.noteTuples(len(tuples))
	if p.opts.OnTuples != nil {
		p.opts.OnTuples(tuples)
	}
}

func (p *pool) emitMatching(tuples dataspace.Bag, q dataspace.Query) {
	var kept dataspace.Bag
	for _, t := range tuples {
		if q.Covers(t) {
			kept = append(kept, t)
		}
	}
	if len(kept) > 0 {
		p.emit(kept)
	}
}

func (p *pool) finish() *core.Result {
	queries, resolved, overflowed, skipped, curve := p.srv.stats()
	return &core.Result{
		Tuples:     p.out,
		Queries:    queries,
		Resolved:   resolved,
		Overflowed: overflowed,
		Skipped:    skipped,
		Curve:      curve,
	}
}

// rankShrink is the parallel form of the numeric algorithm: the recursion's
// independent sub-rectangles become tasks.
func (p *pool) rankShrink(q dataspace.Query) error {
	res, err := p.srv.Answer(q)
	if err != nil {
		return err
	}
	if res.Resolved() {
		p.emit(res.Tuples)
		return nil
	}
	dim := core.FirstOpenNumeric(q)
	if dim < 0 {
		return core.ErrUnsolvable
	}
	x, c := core.SplitPivot(res.Tuples, dim, p.k)
	lo, _ := q.Extent(dim)

	if c <= p.k/4 && x > lo {
		left, right, err := q.Split2(dim, x)
		if err != nil {
			return err
		}
		p.spawn(func() error { return p.rankShrink(left) })
		return p.rankShrink(right)
	}
	left, mid, right, hasLeft, hasRight, err := q.Split3(dim, x)
	if err != nil {
		return err
	}
	if hasLeft {
		p.spawn(func() error { return p.rankShrink(left) })
	}
	if hasRight {
		p.spawn(func() error { return p.rankShrink(right) })
	}
	return p.rankShrink(mid)
}

// node is the parallel form of extended-DFS at an overflowing node: every
// child is independent given the (deduplicated) slice responses.
func (p *pool) node(q dataspace.Query, level, cat int) error {
	u := int64(p.schema.Attr(level).DomainSize)
	p.spawnChildren(u, func(v int64) error {
		child := q.WithValue(level, v)
		slice, err := p.srv.Answer(dataspace.UniverseQuery(p.schema).WithValue(level, v))
		if err != nil {
			return err
		}
		if slice.Resolved() {
			p.emitMatching(slice.Tuples, child)
			return nil
		}
		if level+1 == cat {
			return p.rankShrink(child)
		}
		res, err := p.srv.Answer(child)
		if err != nil {
			return err
		}
		if res.Resolved() {
			p.emit(res.Tuples)
			return nil
		}
		return p.node(child, level+1, cat)
	})
	return nil
}
