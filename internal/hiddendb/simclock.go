// A deterministic virtual clock: the simulated implementation of Clock.
//
// The parallel ablation's question — how much wall-clock time does a
// pipelined batcher save under a 3 ms round trip? — used to be answered by
// actually sleeping 3 ms per round trip, which made the measurement slow
// and the answer a property of the loaded machine it ran on. SimClock
// replaces real time with discrete-event time: round trips register a
// virtual deadline and block; the clock jumps straight to the earliest
// deadline, but only when the whole simulated system is quiescent — no
// goroutine is doing work that could still issue a round trip "now". The
// same crawl therefore always observes the same virtual elapsed time,
// regardless of scheduler interleavings or machine load, and a simulated
// minute of network latency costs microseconds of real time. Every layer
// that takes a Clock — Latency, RateLimited, session TTLs, retry backoff —
// runs on it unchanged.
//
// Quiescence is cooperative, counted by holds. Every participant that is
// runnable — a crawl worker computing on a response, a dispatcher packing a
// batch, a message sitting in a channel waiting to be processed — owns one
// hold; a participant blocked waiting for a round trip owns none. When the
// hold count reaches zero, nothing can happen except by time passing, so
// the clock advances to the next deadline and wakes the round trips due
// then (restoring their holds). The parallel crawler's batcher maintains
// the holds for all of its goroutines and messages; a sequential crawl
// needs no holds at all — with no concurrency there is never anything to
// wait for, and Sleep simply advances the clock (see Sleep).
package hiddendb

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// SimClock is a deterministic virtual Clock. Create one per simulated
// crawl with NewSimClock, wire the server with NewLatency on it and — for
// the parallel crawler — set the same clock in parallel.Crawler.Clock so
// the dispatcher can keep the hold count. Mixing two independently-driven
// crawls on one clock is not supported: the quiescence rule is "nothing in
// this simulation is runnable", which a foreign crawl would falsify.
type SimClock struct {
	mu       sync.Mutex
	now      time.Duration
	active   int
	sleepers sleeperHeap
	// idle, when non-nil, is consulted at quiescence before time advances.
	// Returning true means the callback scheduled more work for the current
	// instant (it is granted one hold, which the scheduled work must
	// eventually Release); false lets the clock advance. The parallel
	// dispatcher uses this to flush a partially filled batch exactly when
	// the simulated instant has no more queries to offer — the
	// deterministic analogue of "the connection would otherwise go idle".
	idle func() bool
}

// sleeper is one goroutine blocked until a virtual deadline.
type sleeper struct {
	deadline time.Duration
	ch       chan struct{}
	fired    bool
	// counted records whether the sleeper released a hold when it went to
	// sleep (and so must be handed one back on waking).
	counted bool
	index   int
}

// sleeperHeap is a min-heap of sleepers by deadline.
type sleeperHeap []*sleeper

func (h sleeperHeap) Len() int           { return len(h) }
func (h sleeperHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h sleeperHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *sleeperHeap) Push(x any)        { s := x.(*sleeper); s.index = len(*h); *h = append(*h, s) }
func (h *sleeperHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}
func (h sleeperHeap) peek() *sleeper { return h[0] }

// NewSimClock returns a virtual clock at time zero.
func NewSimClock() *SimClock {
	return &SimClock{}
}

// Now returns the current virtual time — after a simulated crawl, its
// deterministic virtual elapsed time. A nil clock reads as zero.
func (c *SimClock) Now() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Hold marks one participant (goroutine or in-flight message) runnable:
// while any hold is outstanding the clock will not advance. Nil-safe, so
// callers can thread an optional clock without guarding every call.
func (c *SimClock) Hold() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.active++
	c.mu.Unlock()
}

// Release drops a hold taken with Hold. When the last hold is released the
// system is quiescent: the idle callback gets a chance to schedule more
// work at the current instant, and otherwise the clock advances to the
// next deadline. Nil-safe.
func (c *SimClock) Release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.active--
	c.advanceLocked()
	c.mu.Unlock()
}

// SetIdle installs (or, with nil, removes) the quiescence callback. See
// the idle field. Nil-safe.
func (c *SimClock) SetIdle(f func() bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.idle = f
	c.mu.Unlock()
}

// Sleep blocks the caller until d of virtual time has passed, or until ctx
// is cancelled (returning the ctx's error, with the caller runnable
// again). A caller inside the hold protocol has its hold released for the
// duration of the sleep and restored on waking; a caller outside it (a
// sequential crawl — the only goroutine in the simulation) finds the clock
// with no holds and no competing sleepers, so the deadline is reached
// immediately and Sleep returns without blocking at all.
func (c *SimClock) Sleep(ctx context.Context, d time.Duration) error {
	if c == nil {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if d <= 0 {
		c.mu.Unlock()
		return nil
	}
	s := &sleeper{deadline: c.now + d, ch: make(chan struct{})}
	if c.active > 0 {
		c.active--
		s.counted = true
	}
	heap.Push(&c.sleepers, s)
	c.advanceLocked()
	c.mu.Unlock()

	select {
	case <-s.ch:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		if !s.fired {
			heap.Remove(&c.sleepers, s.index)
			s.fired = true
			if s.counted {
				c.active++ // the caller is runnable again
			}
		}
		c.mu.Unlock()
		return ctx.Err()
	}
}

// advanceLocked advances virtual time while the system is quiescent: no
// holds outstanding, the idle callback (if any) has nothing left to
// schedule, and at least one sleeper is due. All sleepers sharing the
// earliest deadline wake together — they complete at the same virtual
// instant — and each counted sleeper gets its hold back before its channel
// closes, so the hold count can never read zero while woken work is
// pending.
func (c *SimClock) advanceLocked() {
	for c.active == 0 {
		// The idle callback is consulted even with no sleeper due: a
		// pending batch with no round trip in flight still needs its
		// quiescence flush, or the simulation would stall at time zero.
		if c.idle != nil && c.idle() {
			c.active++ // the hold granted to the work idle() scheduled
			return
		}
		if c.sleepers.Len() == 0 {
			return
		}
		c.now = c.sleepers.peek().deadline
		for c.sleepers.Len() > 0 && c.sleepers.peek().deadline == c.now {
			s := heap.Pop(&c.sleepers).(*sleeper)
			s.fired = true
			if s.counted {
				c.active++
			}
			close(s.ch)
		}
		// Uncounted sleepers (sequential callers) restore no hold; if more
		// uncounted sleepers remain the loop would wake them too, which is
		// why one clock drives at most one crawl.
	}
}
