package parallel

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
)

// batcher is the concurrent counterpart of core's session plumbing: a
// thread-safe memoizing, counting, filtering view of the server that packs
// the crawl's ready queries into AnswerBatch round trips.
//
// Workers submit queries and block on their result; a single dispatcher
// goroutine drains the ready queue into batches of up to maxBatch and
// issues each batch as one asynchronous Server.AnswerBatch call. Dispatch
// is speculative and double-buffered: up to depth round trips fly at once,
// and while they do, newly ready queries accumulate into the next batch,
// which departs the moment a flight slot is free — when one is already
// free, immediately, so a dependency chain pays no batching delay. Only
// when all depth slots are busy does the batch wait, growing until a
// completion frees a slot (or it fills to maxBatch and queues for the next
// slot). This removes the flush-on-completion pipeline bubble of the
// previous design, where a query arriving while any round trip was in
// flight always waited for that round trip to finish: with depth ≥ 2 the
// connection stays busy and the ready queue keeps draining behind it.
// depth = 1 restores the old flush-on-completion behaviour exactly, and
// maxBatch = depth = 1 degenerates to the original query-at-a-time
// semaphore.
//
// Because a batch is answered exactly as if issued sequentially, the set
// (and count) of queries reaching the server is identical to the
// sequential algorithm's — pipelining changes only round trips and wall
// clock, never the paper's cost metric.
//
// Memoization is singleflight: when two workers need the same query (e.g.
// the same slice query from different tree branches) only one enqueues it
// and the other blocks on the first's result.
//
// # Virtual time
//
// With a hiddendb.SimClock (core.Options.Clock) — the same clock the
// server's hiddendb.Latency waits on — the whole pipeline runs under
// deterministic virtual time: the batcher keeps the clock's hold
// count — one hold per runnable worker, per queued request, per completion
// signal — so the clock advances only when every goroutine of the crawl is
// blocked on an in-flight (virtually sleeping) round trip. Launches then
// happen only at quiescence ticks (the clock's idle callback), over the
// pending list in canonical key order — a completion by itself flushes
// nothing; the workers it wakes get to submit their follow-up queries at
// the same virtual instant first, and since any batch launched within a
// simulated instant departs at that instant, the deferral is free. Batch
// sizes, batch membership, round-trip counts and the virtual elapsed time
// therefore depend only on the crawl's dependency structure, not on
// scheduler timing.
type batcher struct {
	// ctx is the crawl's context: every batch round trip is issued under
	// it, so cancelling the crawl cancels its in-flight batches at the
	// server (or on the wire) instead of letting them run to completion.
	ctx      context.Context
	inner    hiddendb.Server
	opts     *core.Options
	maxBatch int
	// depth is the pipeline's base depth. The dispatcher owns the live
	// (possibly widened) value as run's local; partial batches are always
	// gated at this base value, so idleTick reads it directly.
	depth int
	// adaptive lets the dispatcher widen the depth up to maxAdaptiveDepth
	// whenever a full-width batch is blocked on a flight slot — the
	// signal that one more overlapped round trip saves its whole latency.
	// No blocked full batch, no widening: the savings have flattened.
	adaptive bool
	clock    *hiddendb.SimClock // nil outside virtual-time simulations
	reqs     chan flightReq
	donec    chan struct{}
	tickc    chan struct{}
	stop     chan struct{}

	// pendingN, inflightN and depthN mirror the dispatcher's private state
	// for the virtual clock's idle callback, which must decide "is there a
	// batch to flush and a slot to fly it in — or a widening to grant?"
	// from outside the dispatcher goroutine. They are only read at
	// quiescence, when the dispatcher is parked and the values are exact.
	pendingN  atomic.Int32
	inflightN atomic.Int32
	depthN    atomic.Int32

	// progressMu serializes OnProgress callbacks across concurrently
	// completing round trips: the sequential engine invokes the callback
	// serially, so callers write non-thread-safe observers — the parallel
	// engine must honour the same contract. Separate from mu so a slow
	// observer never blocks result delivery or the dispatcher.
	progressMu sync.Mutex

	mu      sync.Mutex
	flights map[string]*flight
	// deferred holds an error the server reported alongside a fully
	// answered batch (e.g. a remote quota signal flagged on the last
	// affordable responses): those results were delivered, and the error
	// fails every query after them, as it would sequentially.
	deferred error
	queries  int
	resolve  int
	overfl   int
	skipped  int
	tuples   int
	curve    []core.CurvePoint
}

// flight is one in-progress or completed query.
type flight struct {
	done chan struct{}
	res  hiddendb.Result
	err  error
	// waiters counts the workers blocked on done; the deliverer mints one
	// clock hold per waiter before waking them. sealed marks the flight
	// delivered, so a late memo hit returns without blocking (and without
	// touching its own hold). Both are guarded by batcher.mu.
	waiters int
	sealed  bool
}

// flightReq pairs a query with the flight awaiting its response. key is
// q.Key(), precomputed by Answer: under a virtual clock the dispatcher
// sorts the pending list by it (see run).
type flightReq struct {
	q   dataspace.Query
	key string
	f   *flight
}

// newBatcher starts the dispatcher; the caller must close() it after the
// crawl's last Answer has returned. maxBatch bounds the width of one round
// trip, depth how many round trips overlap: at most maxBatch×depth queries
// are in flight at once.
func newBatcher(ctx context.Context, inner hiddendb.Server, maxBatch, depth int, adaptive bool, clock *hiddendb.SimClock, opts *core.Options) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if depth < 1 {
		depth = 1
	}
	maxDepth := depth
	if adaptive && maxDepth < maxAdaptiveDepth {
		maxDepth = maxAdaptiveDepth
	}
	b := &batcher{
		ctx:      ctx,
		inner:    inner,
		opts:     opts,
		maxBatch: maxBatch,
		depth:    depth,
		adaptive: adaptive,
		clock:    clock,
		reqs:     make(chan flightReq, maxBatch),
		// Buffered to the flight-slot count (the widest the pipeline may
		// ever grow) so completion signals never block a delivering
		// goroutine even when the dispatcher is busy.
		donec:   make(chan struct{}, maxDepth),
		tickc:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
		flights: make(map[string]*flight),
	}
	b.depthN.Store(int32(depth))
	if clock != nil {
		clock.SetIdle(b.idleTick)
	}
	go b.run()
	return b
}

// close stops the dispatcher. Safe only once no Answer call is pending.
func (b *batcher) close() {
	if b.clock != nil {
		b.clock.SetIdle(nil)
		// A tick granted just before SetIdle carries a hold nobody will
		// consume now that the dispatcher is stopping; drop it.
		select {
		case <-b.tickc:
			b.clock.Release()
		default:
		}
	}
	close(b.stop)
}

// idleTick is the SimClock's quiescence callback: wake the dispatcher
// before virtual time advances whenever it could launch something — a
// full-width batch with a flight slot free (or, in adaptive mode, with
// headroom left to widen one), or a partial batch with a base-depth slot
// free. Under a virtual clock the dispatcher launches only on these ticks
// (see run), so the conditions here must cover exactly the launch rules.
// The granted hold rides the tick message and is released by the
// dispatcher once the flush is processed. Runs with the clock's lock
// held, while every crawl goroutine is parked — the atomics are exact.
//
// The partial-flush slot test uses the base depth, never a widened one:
// partial batches do not ride widened slots — see run. Gating partials on
// the widened depth would flush them early and pay extra round trips for
// wall clock the full batches already won.
//
// A tick must never fire when the dispatcher would wake and change
// nothing: it would park back into the identical quiescent state and
// re-tick forever, without virtual time ever passing.
func (b *batcher) idleTick() bool {
	pending := b.pendingN.Load()
	if pending == 0 {
		return false
	}
	inflight, depth := b.inflightN.Load(), b.depthN.Load()
	full := pending >= int32(b.maxBatch) &&
		(inflight < depth || (b.adaptive && depth < maxAdaptiveDepth))
	partial := inflight < int32(b.depth)
	if !full && !partial {
		return false
	}
	select {
	case b.tickc <- struct{}{}:
		return true
	default:
		// A tick is already pending; its hold keeps the clock from
		// advancing, so quiescence cannot actually be reached again before
		// the dispatcher consumes it. Defensive only.
		return false
	}
}

// Answer submits q to the dispatcher and waits for its response. Each
// distinct query is issued at most once across all workers. A crawl whose
// ctx is already cancelled fails fast without enqueueing.
//
// Clock protocol: the calling worker owns one hold. A worker that joins an
// existing flight releases it while blocked (delivery mints it back); the
// worker that creates the flight keeps its hold riding the queued request,
// where the dispatcher assumes it.
func (b *batcher) Answer(q dataspace.Query) (hiddendb.Result, error) {
	if err := b.ctx.Err(); err != nil {
		return hiddendb.Result{}, err
	}
	if b.opts.QueryFilter != nil && !b.opts.QueryFilter(q) {
		b.mu.Lock()
		b.skipped++
		b.mu.Unlock()
		return hiddendb.Result{}, nil
	}
	key := q.Key()
	b.mu.Lock()
	if f, ok := b.flights[key]; ok {
		if f.sealed {
			b.mu.Unlock()
			return f.res, f.err
		}
		f.waiters++
		b.mu.Unlock()
		b.clock.Release()
		<-f.done // delivery minted this worker's hold back
		return f.res, f.err
	}
	if err := b.deferred; err != nil {
		b.mu.Unlock()
		return hiddendb.Result{}, err
	}
	f := &flight{done: make(chan struct{}), waiters: 1}
	b.flights[key] = f
	b.mu.Unlock()

	b.reqs <- flightReq{q: q, key: key, f: f} // the worker's hold rides the request
	<-f.done
	return f.res, f.err
}

// maxAdaptiveDepth caps how far an adaptive pipeline may widen — a
// runaway bound far above any latency×throughput product the crawls here
// produce, not a tuning knob.
const maxAdaptiveDepth = 64

// run is the dispatcher loop. Wait for a trigger — a ready query, a
// completed round trip, or (under a virtual clock) a quiescence tick —
// greedily drain whatever else is ready into the pending batch, then
// launch as much of it as the free flight slots allow. The pending list is
// unbounded: the dispatcher never blocks outside its select, so the ready
// channel cannot back up behind a stalled launch, and — under a virtual
// clock — queries waiting for a slot hold no clock holds, letting
// simulated time pass while they wait.
func (b *batcher) run() {
	var pending []flightReq
	depth := b.depth
	inflight := 0
	held := 0 // clock holds owned by the dispatcher (one per trigger consumed)

	for {
		ticked := false
		select {
		case r := <-b.reqs:
			pending = append(pending, r)
		case <-b.donec:
			inflight--
		case <-b.tickc:
			ticked = true
		case <-b.stop:
			return
		}
		held++
	drain:
		for {
			select {
			case r := <-b.reqs:
				pending = append(pending, r)
				held++
			case <-b.donec:
				inflight--
				held++
			default:
				break drain
			}
		}
		// Launch while a flight slot is free. Under real time this is
		// eager: a full-width batch departs the moment it fills, a partial
		// one speculatively once the ready queue is drained (waiting could
		// only delay it), and widening happens the instant a full batch is
		// blocked. Under a virtual clock every launch decision instead
		// waits for a quiescence tick and processes the pending list in
		// canonical key order: mid-instant, which queries have arrived and
		// in what order is scheduler noise, but the quiescent set is exact
		// — and since a batch launched anywhere within a simulated instant
		// departs at that instant, the deferral costs no virtual time.
		// Batch membership (in particular, which queries are left behind
		// when the slots run out) therefore depends only on the crawl's
		// dependency structure. In adaptive mode a partial batch is
		// additionally gated at the base depth: widened slots carry
		// full-width batches only, so widening can move full batches
		// earlier but never fragments the stream into extra partial round
		// trips.
		if b.clock == nil || ticked {
			if b.clock != nil {
				sort.Slice(pending, func(i, j int) bool {
					return pending[i].key < pending[j].key
				})
			}
			for {
				for len(pending) > 0 && inflight < depth {
					if len(pending) < b.maxBatch && inflight >= b.depth {
						break
					}
					n := min(b.maxBatch, len(pending))
					batch := make([]flightReq, n)
					copy(batch, pending)
					rest := copy(pending, pending[n:])
					pending = pending[:rest]
					inflight++
					b.inflightN.Store(int32(inflight))
					b.clock.Hold() // the issue goroutine's hold
					go b.issue(batch)
				}
				// Adaptive widening: a full-width batch is ready but every
				// slot is busy — launching it now instead of after the
				// next completion saves a round trip of latency, so widen
				// by one and launch it. When no full batch is blocked, the
				// savings have flattened and the depth stays put.
				if !b.adaptive || depth >= maxAdaptiveDepth ||
					inflight < depth || len(pending) < b.maxBatch {
					break
				}
				depth++
				b.depthN.Store(int32(depth))
			}
		}
		b.pendingN.Store(int32(len(pending)))
		b.inflightN.Store(int32(inflight))
		// Park: drop the trigger holds so virtual time can pass while the
		// pending batch waits for a slot or for the next instant's tick.
		for ; held > 0; held-- {
			b.clock.Release()
		}
	}
}

// issue sends one batch to the server and delivers the responses. Per the
// Server contract an error leaves results for the answered prefix only; the
// requests beyond it all fail with the batch's error.
func (b *batcher) issue(batch []flightReq) {
	qs := make([]dataspace.Query, len(batch))
	for i, r := range batch {
		qs[i] = r.q
	}
	results, err := b.inner.AnswerBatch(b.ctx, qs)
	if err == nil && len(results) < len(batch) {
		err = fmt.Errorf("parallel: server answered %d of %d batched queries without an error", len(results), len(batch))
	}

	b.mu.Lock()
	if err != nil {
		if len(results) == len(batch) {
			// Every query of this batch was answered; the error concerns
			// whatever would come next (a quota flagged on the last
			// affordable responses). Deliver the results and fail later
			// queries instead of dropping the signal.
			b.deferred = err
			err = nil
		} else if errors.Is(err, hiddendb.ErrQuotaExceeded) || hiddendb.Cancelled(err) || isTransportExhausted(err) {
			// The budget died mid-batch, the crawl was cancelled, or the
			// retrying transport gave up after its full attempt/budget
			// allowance: this batch's unanswered queries fail below with
			// the error, and every later distinct query is doomed too —
			// budgets never come back within a crawl, a cancelled ctx
			// stays cancelled, and a connection that outlived every
			// retry won't heal for the very next round trip. Latch the
			// error so they fail fast instead of each paying a pointless
			// round trip (for exhausted retries, a pointless full retry
			// cycle).
			b.deferred = err
		}
	}
	points := make([]core.CurvePoint, len(results))
	waiters := 0
	for i, r := range batch {
		if i < len(results) {
			r.f.res = results[i]
			b.queries++
			if results[i].Overflow {
				b.overfl++
			} else {
				b.resolve++
			}
			points[i] = core.CurvePoint{Queries: b.queries, Tuples: b.tuples}
			if b.opts.CollectCurve {
				b.curve = append(b.curve, points[i])
			}
		} else {
			r.f.err = err
		}
		r.f.sealed = true
		waiters += r.f.waiters
	}
	b.mu.Unlock()
	if b.opts.OnProgress != nil {
		b.progressMu.Lock()
		for _, p := range points {
			b.opts.OnProgress(p)
		}
		b.progressMu.Unlock()
	}

	// Clock protocol: mint the woken workers' holds (and the completion
	// signal's) before any of them can run, then retire this goroutine's.
	for i := 0; i < waiters+1; i++ {
		b.clock.Hold()
	}
	for _, r := range batch {
		close(r.f.done)
	}
	b.donec <- struct{}{}
	b.clock.Release()
}

// noteTuples records output growth for the progressiveness curve.
func (b *batcher) noteTuples(n int) {
	b.mu.Lock()
	b.tuples += n
	b.mu.Unlock()
}

// stats snapshots the counters for the final Result.
func (b *batcher) stats() (queries, resolved, overflowed, skipped int, curve []core.CurvePoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opts.CollectCurve && len(b.curve) > 0 {
		b.curve[len(b.curve)-1].Tuples = b.tuples
	}
	return b.queries, b.resolve, b.overfl, b.skipped, b.curve
}

// isTransportExhausted reports whether err is a terminal transport failure:
// the retrying HTTP client already spent every attempt (or its retry
// budget) before surfacing it, so an immediate re-issue cannot succeed.
func isTransportExhausted(err error) bool {
	var te *httpclient.TransportError
	return errors.As(err, &te)
}
