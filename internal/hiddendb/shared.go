// The fleet-wide shared answer cache: the "pace car" tier under the
// per-session decorator stacks.
//
// The paper's cost model charges every client the full query count, so N
// clients crawling the same hidden store pay N times for identical
// knowledge. Shared is the opt-in server-side remedy: one process-wide memo
// of the store's answers, keyed by canonical query, that every session's
// stack reads through. The first session to ask a query leads — it pays the
// store through its own quota and counter and populates the entry — while
// concurrent followers block on the per-key single-flight and read the
// answer the moment the leader lands it, never re-issuing the query. A
// still-running crawl is therefore streamed incrementally: a follower
// crawling the same store rides one query behind the leader at worst,
// never waiting for the whole crawl to finish. A leader that fails — its
// crawl cancelled, its budget exhausted, its session evicted mid-flight —
// hands leadership to a follower instead of orphaning them (see
// memo.Flight).
//
// Accounting is the point, and it is policy-gated, never implicit:
// SharedOff (the default) keeps the tier out of the stack entirely, so
// paper-mode costs are bit-identical; SharedFree places the tier above the
// session's quota and counter, so a shared hit is free — M crawlers of one
// store at ~1x total cost; SharedCharged places it below them, so a hit
// saves the store's work but still debits the client — the paper's
// accounting preserved while the fleet shares compute.
package hiddendb

import (
	"context"
	"fmt"
	"sync/atomic"

	"hidb/internal/dataspace"
	"hidb/internal/memo"
)

// SharedCachePolicy selects whether and how the fleet-wide shared answer
// cache participates in a session stack.
type SharedCachePolicy int

const (
	// SharedOff is paper mode: no shared tier, every client pays its full
	// query count. The default, bit-identical to a stack without the tier.
	SharedOff SharedCachePolicy = iota
	// SharedFree serves shared hits free of the client's quota and counter:
	// only the leading session pays the store. The fleet-scale mode.
	SharedFree
	// SharedCharged serves shared hits from the cache — saving the store's
	// work — but still debits the client's quota and counter, preserving
	// the paper's per-client accounting exactly.
	SharedCharged
)

// String returns the policy's flag spelling: off, free or charged.
func (p SharedCachePolicy) String() string {
	switch p {
	case SharedOff:
		return "off"
	case SharedFree:
		return "free"
	case SharedCharged:
		return "charged"
	}
	return fmt.Sprintf("SharedCachePolicy(%d)", int(p))
}

// ParseSharedCachePolicy parses the flag spelling accepted by String.
func ParseSharedCachePolicy(s string) (SharedCachePolicy, error) {
	switch s {
	case "off", "":
		return SharedOff, nil
	case "free":
		return SharedFree, nil
	case "charged":
		return SharedCharged, nil
	}
	return SharedOff, fmt.Errorf("hiddendb: unknown shared-cache policy %q (want off, free or charged)", s)
}

// sharedEntrySize estimates one cached answer's resident bytes for the LRU
// bound: the key, the result header, and every tuple's values.
func sharedEntrySize(key string, res Result) int64 {
	n := int64(len(key)) + 64
	for _, t := range res.Tuples {
		n += int64(len(t))*8 + 24
	}
	return n
}

// Shared is one hidden store's fleet-wide answer cache plus its per-key
// single-flight. Create one per served store and hand each session a View.
// Safe for concurrent use by any number of views.
type Shared struct {
	cache  *memo.Cache[Result]
	flight *memo.Flight[Result]
	tallies
}

// tallies accumulates Memo tallies: a view's, or the whole tier's.
type tallies struct{ hits, waits, leads atomic.Int64 }

// Hits returns how many queries were answered from an already-cached entry.
func (c *tallies) Hits() int { return int(c.hits.Load()) }

// Waits returns how many queries were answered by waiting out another
// session's in-flight fetch — the follower side of the pace car.
func (c *tallies) Waits() int { return int(c.waits.Load()) }

// Leads returns how many queries were led: paid through the leading
// session's own stack and populated into the cache.
func (c *tallies) Leads() int { return int(c.leads.Load()) }

func (c *tallies) add(t Tally) {
	if t.Hits > 0 {
		c.hits.Add(int64(t.Hits))
	}
	if t.Waits > 0 {
		c.waits.Add(int64(t.Waits))
	}
	if t.Leads > 0 {
		c.leads.Add(int64(t.Leads))
	}
}

// NewShared builds an empty shared cache. maxBytes > 0 bounds its resident
// size with per-shard LRU eviction (an evicted answer is simply re-paid by
// its next asker — the cache is an optimization, never the source of
// truth); 0 is unbounded.
func NewShared(maxBytes int64) *Shared {
	return &Shared{
		cache:  memo.New(maxBytes, sharedEntrySize),
		flight: memo.NewFlight[Result](),
	}
}

// publish is every view's Memo.Record: it stores a led answer.
func (s *Shared) publish(key string, _ dataspace.Query, res Result) { s.cache.Set(key, res) }

// Entries returns the number of answers currently cached.
func (s *Shared) Entries() int { return s.cache.Len() }

// Bytes returns the estimated resident size of a bounded cache (0 when
// unbounded).
func (s *Shared) Bytes() int64 { return s.cache.Bytes() }

// Evictions returns how many answers the byte bound has evicted.
func (s *Shared) Evictions() int { return s.cache.Evictions() }

// SharedStats is a point-in-time snapshot of the tier's counters.
type SharedStats struct {
	// Hits counts answers served from a cached entry; Waits answers served
	// by waiting on a leader's in-flight fetch. Both are free under
	// SharedFree.
	Hits  int
	Waits int
	// Leads counts queries some session paid and populated.
	Leads int
	// Entries and Bytes describe the cache's occupancy; Evictions how many
	// entries the byte bound has dropped.
	Entries   int
	Bytes     int64
	Evictions int
	// InFlight is the number of keys currently being led.
	InFlight int
}

// Stats snapshots the tier's counters.
func (s *Shared) Stats() SharedStats {
	return SharedStats{
		Hits:      s.Hits(),
		Waits:     s.Waits(),
		Leads:     s.Leads(),
		Entries:   s.Entries(),
		Bytes:     s.Bytes(),
		Evictions: s.Evictions(),
		InFlight:  s.flight.InFlight(),
	}
}

// View returns one session's server through the shared tier. inner is the
// chain that pays when this session leads a miss: under SharedFree the
// session's quota → rate limit → counter → store chain (a hit skips it
// entirely, hence is free); under SharedCharged the bare store (quota and
// counter sit above the view and charge hits and leads alike). Each view
// keeps per-session hit/wait/lead counters alongside the tier-wide ones.
func (s *Shared) View(inner Server) *SharedView {
	return &SharedView{shared: s, memo: Memo{Inner: inner, Cache: s.cache, Flight: s.flight, Record: s.publish}}
}

// SharedView is one session's window onto a Shared tier: a Memo over the
// tier's cache and flight. A query some other session is fetching right
// now waits for that leader (taking over if it fails); an uncached one is
// led — paid through inner, this session's budget, and published for the
// fleet. It implements Server; safe for concurrent use when inner is.
type SharedView struct {
	shared *Shared
	memo   Memo
	tallies
}

// Answer implements Server as a one-query batch.
func (v *SharedView) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	return Answer(ctx, v, q)
}

// AnswerBatch implements Server by asking the view's Memo one query at a
// time: each query hits, waits or leads exactly as it would have alone.
// So the view never pays past a wait it has not resolved — under
// SharedFree the session's journal above records only the answered
// prefix, and must match what inner charged — and it leads one key at a
// time, so other sessions never wait on a key its batch has not reached.
func (v *SharedView) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	out := make([]Result, 0, len(qs))
	var t Tally
	var err error
	for _, q := range qs {
		var res Result
		var via memo.Via
		if res, via, err = v.memo.Answer(ctx, q); err != nil {
			break
		}
		t.add(via)
		out = append(out, res)
	}
	v.add(t)
	v.shared.add(t)
	return out, err
}

// K implements Server.
func (v *SharedView) K() int { return v.memo.Inner.K() }

// Schema implements Server.
func (v *SharedView) Schema() *dataspace.Schema { return v.memo.Inner.Schema() }
