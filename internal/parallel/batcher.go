package parallel

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// batcher is the parallel crawl's view of its server: it packs the
// crawl's ready queries into AnswerBatch round trips, single-flights
// repeated queries and keeps the virtual clock's holds. Its server is the
// crawl's core.Books, which count every answered query and report
// progress; the batcher keeps no counter of its own.
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
// slot). With depth ≥ 2 the connection stays busy and the ready queue
// keeps draining behind it: a query arriving while a round trip flies need
// not wait for that round trip to finish. depth = 1 is flush-on-completion
// (a batch departs only when the previous round trip has returned), and
// maxBatch = depth = 1 issues one query at a time.
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
// With a hiddendb.SimClock (Crawler.Clock) — the same clock the
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
	maxBatch int
	depth    int                // how many round trips may fly at once
	clock    *hiddendb.SimClock // nil outside virtual-time simulations
	reqs     chan flightReq
	donec    chan struct{}
	tickc    chan struct{}
	stop     chan struct{}

	// pendingN and inflightN mirror the dispatcher's private state for the
	// virtual clock's idle callback, which must decide "is there a batch to
	// flush and a slot to fly it in?" from outside the dispatcher
	// goroutine. They are only read at quiescence, when the dispatcher is
	// parked and the values are exact.
	pendingN  atomic.Int32
	inflightN atomic.Int32

	mu      sync.Mutex
	flights map[string]*flight
	// deferred latches an error a round trip reported: every later
	// distinct query fails fast with it instead of paying a round trip,
	// since any failed query already fails the whole crawl. A fully
	// answered batch still delivers its results (e.g. a remote quota
	// signal flagged on the last affordable responses).
	deferred error
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
func newBatcher(ctx context.Context, inner hiddendb.Server, maxBatch, depth int, clock *hiddendb.SimClock) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if depth < 1 {
		depth = 1
	}
	b := &batcher{
		ctx:      ctx,
		inner:    inner,
		maxBatch: maxBatch,
		depth:    depth,
		clock:    clock,
		reqs:     make(chan flightReq, maxBatch),
		// Buffered to the flight-slot count so completion signals never
		// block a delivering goroutine even when the dispatcher is busy.
		donec:   make(chan struct{}, depth),
		tickc:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
		flights: make(map[string]*flight),
	}
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
// before virtual time advances whenever it could launch something —
// pending work and a free flight slot. Under a virtual clock the
// dispatcher launches only on these ticks (see run), so this condition
// must be exactly the launch rule. The granted hold rides the tick message
// and is released by the dispatcher once the flush is processed. Runs with
// the clock's lock held, while every crawl goroutine is parked — the
// atomics are exact.
//
// A tick must never fire when the dispatcher would wake and change
// nothing: it would park back into the identical quiescent state and
// re-tick forever, without virtual time ever passing.
func (b *batcher) idleTick() bool {
	if b.pendingN.Load() == 0 || b.inflightN.Load() >= int32(b.depth) {
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
		// only delay it). Under a virtual clock every launch decision
		// instead waits for a quiescence tick and processes the pending
		// list in canonical key order: mid-instant, which queries have
		// arrived and in what order is scheduler noise, but the quiescent
		// set is exact — and since a batch launched anywhere within a
		// simulated instant departs at that instant, the deferral costs no
		// virtual time. Batch membership (in particular, which queries are
		// left behind when the slots run out) therefore depends only on
		// the crawl's dependency structure.
		if b.clock == nil || ticked {
			if b.clock != nil {
				sort.Slice(pending, func(i, j int) bool {
					return pending[i].key < pending[j].key
				})
			}
			for len(pending) > 0 && inflight < b.depth {
				n := min(b.maxBatch, len(pending))
				batch := make([]flightReq, n)
				copy(batch, pending)
				rest := copy(pending, pending[n:])
				pending = pending[:rest]
				inflight++
				b.clock.Hold() // the issue goroutine's hold
				go b.issue(batch)
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
		b.deferred = err
		if len(results) == len(batch) {
			err = nil // every query of this batch was answered
		}
	}
	waiters := 0
	for i, r := range batch {
		if i < len(results) {
			r.f.res = results[i]
		} else {
			r.f.err = err
		}
		r.f.sealed = true
		waiters += r.f.waiters
	}
	b.mu.Unlock()

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
