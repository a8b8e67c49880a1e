package hiddendb

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"hidb/internal/dataspace"
)

// RateLimited wraps a Server and throttles the queries that reach it to a
// sustained rate, modelling the queries-per-second limits real hidden
// databases enforce per client on top of their daily budgets. It is a
// token bucket: burst tokens accumulate while the client is idle, each
// query consumes one, and a query arriving to an empty bucket waits for
// the refill — or for its ctx, whichever comes first, so a throttled crawl
// cancels promptly instead of sleeping out its backlog.
//
// Throttling changes only the timing of queries, never their responses or
// count: a batch waits until every one of its queries is affordable and is
// then answered in one round trip, exactly as a sequential caller paying
// per query would eventually be. A wait aborted by ctx issues nothing.
//
// Safe for concurrent use; concurrent waiters drain the refill in FIFO-ish
// order (each recomputes its wait under the bucket lock).
type RateLimited struct {
	inner Server

	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Duration // clock reading at the last refill
	clock  Clock
}

// NewRateLimited wraps srv with a token bucket of the given sustained rate
// (queries per second; must be positive) and burst capacity (queries that
// may be issued back-to-back after an idle period; values below 1 are
// raised to 1), refilling and waiting on clock. The bucket starts full.
func NewRateLimited(srv Server, perSecond float64, burst int, clock Clock) (*RateLimited, error) {
	if perSecond <= 0 || math.IsInf(perSecond, 0) || math.IsNaN(perSecond) {
		return nil, fmt.Errorf("hiddendb: rate limit must be a positive number of queries/second, got %v", perSecond)
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &RateLimited{
		inner:  srv,
		rate:   perSecond,
		burst:  b,
		tokens: b,
		last:   clock.Now(),
		clock:  clock,
	}, nil
}

// take blocks until n tokens have been consumed or ctx is done. Requests
// larger than the burst drain the bucket in burst-sized instalments, so an
// arbitrarily wide batch is still admitted at the sustained rate. A wait
// aborted by ctx refunds the instalments already consumed (capped at the
// bucket's capacity), so a cancelled caller — who issued nothing — does
// not leave the next queries throttled for work that never happened.
func (r *RateLimited) take(ctx context.Context, n int) error {
	taken := 0.0
	refund := func() {
		if taken > 0 {
			r.mu.Lock()
			r.tokens = math.Min(r.burst, r.tokens+taken)
			r.mu.Unlock()
		}
	}
	for n > 0 {
		step := n
		if s := int(r.burst); step > s {
			step = s
		}
		for {
			r.mu.Lock()
			now := r.clock.Now()
			r.tokens = math.Min(r.burst, r.tokens+(now-r.last).Seconds()*r.rate)
			r.last = now
			if r.tokens >= float64(step) {
				r.tokens -= float64(step)
				r.mu.Unlock()
				break
			}
			// Round the wait up: a truncated wait for a deficit under a
			// nanosecond's refill is 0, which never advances a virtual
			// clock (and busy-spins a real one).
			wait := time.Duration(math.Ceil((float64(step) - r.tokens) / r.rate * float64(time.Second)))
			r.mu.Unlock()
			if err := r.clock.Sleep(ctx, wait); err != nil {
				refund()
				return err
			}
		}
		taken += float64(step)
		n -= step
	}
	if err := ctx.Err(); err != nil {
		refund()
		return err
	}
	return nil
}

// Answer implements Server as a one-query batch.
func (r *RateLimited) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	return Answer(ctx, r, q)
}

// AnswerBatch implements Server: the batch waits until all its queries are
// affordable, then costs one round trip. A wait cancelled mid-way issues
// nothing and returns the ctx's error (an empty answered prefix).
func (r *RateLimited) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if err := r.take(ctx, len(qs)); err != nil {
		return nil, err
	}
	return r.inner.AnswerBatch(ctx, qs)
}

// K implements Server.
func (r *RateLimited) K() int { return r.inner.K() }

// Schema implements Server.
func (r *RateLimited) Schema() *dataspace.Schema { return r.inner.Schema() }
