// Package hiddendb simulates the server side of a hidden database exactly as
// the problem setup of Sheng et al. (VLDB 2012, §1.1) specifies:
//
//   - the database D is a bag of tuples over a data space;
//   - a query returns the full qualifying bag q(D) when |q(D)| <= k
//     ("resolved"), and otherwise the k qualifying tuples of highest
//     priority plus an overflow signal;
//   - repeating an overflowing query returns the same k tuples.
//
// Priorities are a fixed random permutation of the tuples, mirroring the
// paper's experimental setup ("each tuple is assigned a random priority, so
// that if a query overflows, always the k tuples with the highest priorities
// are returned").
//
// # The batched contract
//
// The paper's cost metric is the query count, but a production crawler pays
// a round trip per query. A Server therefore answers through AnswerBatch,
// exactly as if the queries were issued one at a time, so the query count
// — the paper's metric — is independent of how queries are packed into
// batches, while the round-trip count divides by the batch size. Every
// decorator keeps its accounting there alone: its Answer is a one-query
// batch (the Answer function). Only the leaves, Local and the HTTP client,
// answer a lone query natively, as their backends can.
//
// # Context
//
// Every entry point takes a context.Context first, and the whole stack
// honours it: a cancelled crawl stops between queries, a deadline aborts a
// remote round trip, a shutting-down server drains instead of hanging. The
// invariant is the same as batching's: with a live context the responses —
// and therefore the paper's query count — are bit-identical to a
// context-free execution; cancellation only decides where the sequential
// prefix ends. A query cut off by cancellation was never served and is
// never charged (see Quota), so the counter, the budget and the journal
// always agree after an abort.
//
// The package also provides the measurement wrappers the crawling algorithms
// and the experiment harness are built on: a query counter, a quota
// enforcer that models the per-IP query budgets real sites impose, a
// token-bucket rate limiter modelling their per-client throttling and a
// round-trip latency; the timed ones wait on a Clock. All wrappers are
// safe for concurrent use when their inner server is, and propagate
// batches natively. The memo the crawling algorithms run behind
// (the "lazy" in lazy-slice-cover) is the journal package's Server.
package hiddendb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/index"
	"hidb/internal/simrand"
)

// Result is the server's response to one query.
type Result struct {
	// Tuples holds q(D) if the query resolved, else the k highest-priority
	// qualifying tuples. Callers must treat the tuples as read-only.
	Tuples dataspace.Bag
	// Overflow is the signal that q(D) has more tuples than were returned.
	Overflow bool
}

// Resolved reports whether the query was answered completely.
func (r Result) Resolved() bool { return !r.Overflow }

// Server is the query interface a crawler sees. Implementations must be
// deterministic: issuing the same query twice yields the same response.
type Server interface {
	// Answer runs one form query against the hidden database, as a
	// one-query AnswerBatch. A cancelled or expired ctx aborts the query
	// with the ctx's error before it is served.
	Answer(ctx context.Context, q dataspace.Query) (Result, error)
	// AnswerBatch answers the queries exactly as if they were issued
	// sequentially, one at a time, in order: results[i] is the response to
	// qs[i], and the server-side query count grows by len(qs). On failure
	// the returned slice holds the responses of the queries answered
	// before the failing one (len(results) < len(qs)) and the error
	// describes the first query that could not be answered — a ctx
	// cancelled mid-batch ends the prefix at the first unserved query and
	// reports the ctx's error.
	AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error)
	// K returns the server's return limit.
	K() int
	// Schema describes the data space the server's form exposes.
	Schema() *dataspace.Schema
}

// Answer answers q through srv as a one-query batch.
func Answer(ctx context.Context, srv Server, q dataspace.Query) (Result, error) {
	res, err := srv.AnswerBatch(ctx, []dataspace.Query{q})
	if len(res) == 1 {
		return res[0], nil
	}
	if err == nil {
		err = fmt.Errorf("hiddendb: a one-query batch answered %d results", len(res))
	}
	return Result{}, err
}

// ErrQuotaExceeded is returned by a QuotaServer once its budget is spent.
var ErrQuotaExceeded = errors.New("hiddendb: query quota exceeded")

// Local is an in-process Server backed by an index.Engine — a single
// index.Store, or a priority-range index.Sharded store (in memory, or a
// diskstore.Store's bands) that answers batches with a parallel per-shard
// fan-out.
type Local struct {
	store index.Engine
	k     int
}

// NewLocal builds a local server over the bag with return limit k. The
// priority permutation is drawn from the given seed, so the same
// (bag, k, seed) triple always yields an identical server.
func NewLocal(schema *dataspace.Schema, bag dataspace.Bag, k int, seed uint64) (*Local, error) {
	byRank, err := rankPermutation(bag, k, seed)
	if err != nil {
		return nil, err
	}
	store, err := index.New(schema, byRank)
	if err != nil {
		return nil, err
	}
	return &Local{store: store, k: k}, nil
}

// NewLocalSharded builds a local server whose store is partitioned into the
// given number of priority-range shards. Responses are bit-identical to
// NewLocal with the same (bag, k, seed); only AnswerBatch's execution
// changes — the batch fans out across the shards in parallel, each shard
// with its own scratch pool.
func NewLocalSharded(schema *dataspace.Schema, bag dataspace.Bag, k int, seed uint64, shards int) (*Local, error) {
	byRank, err := rankPermutation(bag, k, seed)
	if err != nil {
		return nil, err
	}
	store, err := index.NewSharded(schema, byRank, shards)
	if err != nil {
		return nil, err
	}
	return &Local{store: store, k: k}, nil
}

// NewLocalEngine wraps an already-built index.Engine — an in-memory Store
// or Sharded store, or a diskstore.Store (a Sharded over a file's bands) —
// as a local server with return limit k. The engine's rank order is taken
// as the priority order verbatim; it is the caller's job to have arranged
// it (the disk builder bakes the permutation in at build time, so an
// opened store answers bit-identically to NewLocal over the same bag and
// seed).
func NewLocalEngine(store index.Engine, k int) (*Local, error) {
	if k < 1 {
		return nil, fmt.Errorf("hiddendb: return limit k must be >= 1, got %d", k)
	}
	if store == nil {
		return nil, fmt.Errorf("hiddendb: nil engine")
	}
	return &Local{store: store, k: k}, nil
}

// RankOrder arranges the bag in the descending priority order the local
// servers use: the seed's random permutation. Exported so a disk-store
// build can bake the exact NewLocal priority order into the file.
func RankOrder(bag dataspace.Bag, seed uint64) []dataspace.Tuple {
	byRank, _ := rankPermutation(bag, 1, seed)
	return byRank
}

// rankPermutation arranges the bag in descending priority order per the
// seed's random permutation.
func rankPermutation(bag dataspace.Bag, k int, seed uint64) ([]dataspace.Tuple, error) {
	if k < 1 {
		return nil, fmt.Errorf("hiddendb: return limit k must be >= 1, got %d", k)
	}
	rng := simrand.New(seed)
	perm := rng.Perm(len(bag))
	byRank := make([]dataspace.Tuple, len(bag))
	for rank, idx := range perm {
		byRank[rank] = bag[idx]
	}
	return byRank, nil
}

// Answer implements Server with one engine Select.
func (l *Local) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if q.Schema() != l.store.Schema() {
		if err := q.Validate(); err != nil {
			return Result{}, fmt.Errorf("hiddendb: invalid query: %w", err)
		}
	}
	return l.result(l.store.Select(q, l.k)), nil
}

// AnswerBatch implements Server. A one-query batch is one Answer. On a
// sharded store a wider batch is evaluated by all shards in parallel; the
// responses are nevertheless exactly the sequential Answer responses, in
// order. A ctx cancelled mid-batch stops the store's evaluation (and, on a
// sharded store, its fan-out) and returns the answered prefix with the
// ctx's error.
func (l *Local) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	if len(qs) == 1 {
		res, err := l.Answer(ctx, qs[0])
		if err != nil {
			return nil, err
		}
		return []Result{res}, nil
	}
	valid := len(qs)
	var verr error
	for i, q := range qs {
		if q.Schema() != l.store.Schema() {
			if err := q.Validate(); err != nil {
				valid, verr = i, fmt.Errorf("hiddendb: invalid query: %w", err)
				break
			}
		}
	}
	got := l.store.SelectBatch(ctx, qs[:valid], l.k)
	out := make([]Result, len(got))
	for i, g := range got {
		out[i] = l.result(g)
	}
	if len(got) < valid {
		// The store stopped early: only a cancelled ctx does that.
		return out, ctx.Err()
	}
	return out, verr
}

func (l *Local) result(got []dataspace.Tuple) Result {
	if len(got) > l.k {
		return Result{Tuples: dataspace.Bag(got[:l.k]), Overflow: true}
	}
	return Result{Tuples: dataspace.Bag(got)}
}

// K implements Server.
func (l *Local) K() int { return l.k }

// Schema implements Server.
func (l *Local) Schema() *dataspace.Schema { return l.store.Schema() }

// Size returns n, the number of tuples in the hidden database. A real
// hidden server would not expose this; it exists for experiments and tests.
func (l *Local) Size() int { return l.store.Size() }

// Shards returns the number of priority-range partitions backing the
// server — shards of an in-memory store, bands of a disk store, 1 for an
// unpartitioned store.
func (l *Local) Shards() int {
	if s, ok := l.store.(interface{ NumShards() int }); ok {
		return s.NumShards()
	}
	return 1
}

// Dump returns the ground-truth bag (priority order). Test/measurement only.
func (l *Local) Dump() dataspace.Bag { return dataspace.Bag(l.store.All()) }

// PlanStats reports how often each of the backing store's access paths
// executed. The counters are cumulative since construction and safe to
// read while queries are in flight.
func (l *Local) PlanStats() index.PlanStats { return l.store.PlanStats() }

// EngineStats reports which engine implementation backs the server ("mem"
// or "disk").
func (l *Local) EngineStats() index.EngineStats { return l.store.EngineStats() }

// Counting wraps a Server and counts the queries that actually reach it.
// This is the paper's cost metric. Safe for concurrent use: the counters
// are atomics, so concurrent crawls over one server never serialize on a
// statistics lock.
type Counting struct {
	inner    Server
	queries  atomic.Int64
	resolved atomic.Int64
	overflow atomic.Int64
}

// NewCounting wraps srv with a fresh counter.
func NewCounting(srv Server) *Counting { return &Counting{inner: srv} }

// Answer implements Server as a one-query batch.
func (c *Counting) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	return Answer(ctx, c, q)
}

// AnswerBatch implements Server; a batch counts as len(results) queries,
// exactly as the sequential contract requires.
func (c *Counting) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	results, err := c.inner.AnswerBatch(ctx, qs)
	for _, res := range results {
		c.queries.Add(1)
		if res.Overflow {
			c.overflow.Add(1)
		} else {
			c.resolved.Add(1)
		}
	}
	return results, err
}

// K implements Server.
func (c *Counting) K() int { return c.inner.K() }

// Schema implements Server.
func (c *Counting) Schema() *dataspace.Schema { return c.inner.Schema() }

// Queries returns the number of queries issued so far.
func (c *Counting) Queries() int { return int(c.queries.Load()) }

// Resolved returns how many of the issued queries resolved.
func (c *Counting) Resolved() int { return int(c.resolved.Load()) }

// Overflowed returns how many of the issued queries overflowed.
func (c *Counting) Overflowed() int { return int(c.overflow.Load()) }

// Reset zeroes the counters.
func (c *Counting) Reset() {
	c.queries.Store(0)
	c.resolved.Store(0)
	c.overflow.Store(0)
}

// Quota wraps a Server and fails with ErrQuotaExceeded after budget
// queries, modelling per-IP limits of real sites ("most systems have a
// control on how many queries can be submitted by the same IP address").
// Safe for concurrent use when the inner server is.
type Quota struct {
	inner  Server
	mu     sync.Mutex
	budget int
	used   int
}

// NewQuota wraps srv with the given query budget.
func NewQuota(srv Server, budget int) *Quota {
	return &Quota{inner: srv, budget: budget}
}

// Cancelled reports whether err is a context cancellation or deadline
// expiry — the typed signal that a query was aborted before being served,
// as opposed to rejected by the server. Budget accounting depends on the
// distinction: a rejected query stays debited (the site saw it), a
// cancelled one never went out and is refunded in full.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Answer implements Server as a one-query batch.
func (q *Quota) Answer(ctx context.Context, query dataspace.Query) (Result, error) {
	return Answer(ctx, q, query)
}

// AnswerBatch implements Server with sequential debiting semantics: the
// batch is admitted up to the remaining budget, the admitted prefix is
// answered, and a batch cut short by the budget returns the answered prefix
// plus ErrQuotaExceeded — exactly what a sequential caller would observe.
// A batch cut short by ctx cancellation instead refunds every unanswered
// query, including the first unserved one: cancellation happens on the
// client's side of the wire, so nothing beyond the answered prefix was
// ever submitted, and after an abort the budget spent always equals the
// queries actually served.
func (q *Quota) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	q.mu.Lock()
	allowed := q.budget - q.used
	if allowed <= 0 {
		q.mu.Unlock()
		return nil, ErrQuotaExceeded
	}
	if allowed > len(qs) {
		allowed = len(qs)
	}
	q.used += allowed
	q.mu.Unlock()
	res, err := q.inner.AnswerBatch(ctx, qs[:allowed])
	if err != nil {
		// The failing query stays debited — unless the failure is a
		// cancellation, in which case it was never served; refund the
		// queries the inner server never reached either way.
		refund := allowed - len(res) - 1
		if Cancelled(err) {
			refund = allowed - len(res)
		}
		if refund > 0 {
			q.mu.Lock()
			q.used -= refund
			q.mu.Unlock()
		}
		return res, err
	}
	if allowed < len(qs) {
		return res, ErrQuotaExceeded
	}
	return res, nil
}

// K implements Server.
func (q *Quota) K() int { return q.inner.K() }

// Schema implements Server.
func (q *Quota) Schema() *dataspace.Schema { return q.inner.Schema() }

// Remaining returns the unused budget.
func (q *Quota) Remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.budget - q.used
}

// Latency wraps a Server and waits a fixed delay on its Clock before
// answering, simulating the network round trip of a real remote hidden
// database: really slept on Wall, virtual (and deterministic) on a
// SimClock. It is what makes the parallel crawler's speedup measurable in
// tests and benchmarks. A batch pays the delay once — the whole point of
// batching is that B queries cost one round trip. A ctx cancelled during
// the wait aborts the round trip unserved, so nothing is charged. Safe
// for concurrent use when the inner server is (Local is: it is read-only
// after construction).
type Latency struct {
	inner Server
	delay time.Duration
	clock Clock
	trips atomic.Int64
}

// NewLatency wraps srv with a per-round-trip delay on clock.
func NewLatency(srv Server, delay time.Duration, clock Clock) *Latency {
	return &Latency{inner: srv, delay: delay, clock: clock}
}

// Trips returns how many round trips have been served (and paid the
// delay) so far.
func (l *Latency) Trips() int { return int(l.trips.Load()) }

// Answer implements Server as a one-query batch.
func (l *Latency) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	return Answer(ctx, l, q)
}

// AnswerBatch implements Server: one round trip for the whole batch.
func (l *Latency) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	if err := l.clock.Sleep(ctx, l.delay); err != nil {
		return nil, err
	}
	l.trips.Add(1)
	return l.inner.AnswerBatch(ctx, qs)
}

// K implements Server.
func (l *Latency) K() int { return l.inner.K() }

// Schema implements Server.
func (l *Latency) Schema() *dataspace.Schema { return l.inner.Schema() }
