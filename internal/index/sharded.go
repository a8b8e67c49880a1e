// Priority-range sharding. A Sharded store partitions the relation into
// contiguous priority-rank segments and gives each segment its own fully
// indexed Store (columns, posting lists, sorted segments, scratch pool).
// Because the segments are rank ranges, the global priority order is the
// concatenation of the shards' local orders: shard 0 holds the tuples the
// server prefers to return first, shard 1 the next band, and so on. That
// makes every read exact — a Select over the sharded store returns
// bit-identical results to the single-Store engine — while letting a batch
// of queries fan out across shards on independent goroutines with no shared
// mutable state and no scratch-pool contention.
package index

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hidb/internal/dataspace"
)

// Engine is the query-evaluation contract the hiddendb server builds on.
// Store and Sharded both implement it; all methods are safe for concurrent
// use after construction.
type Engine interface {
	// Select returns up to limit+1 matching tuples in descending priority
	// order (limit+1 results signal overflow).
	Select(q dataspace.Query, limit int) []dataspace.Tuple
	// SelectBatch answers each query exactly as Select would, in order.
	// A cancelled ctx stops the batch between queries; the answered
	// prefix is returned (shorter than qs signals the cancellation).
	SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple
	// Count returns the exact number of tuples matching q.
	Count(q dataspace.Query) int
	// Size returns the number of tuples in the store.
	Size() int
	// Schema returns the store's schema.
	Schema() *dataspace.Schema
	// All returns the tuples in priority order (shared storage, read-only).
	All() []dataspace.Tuple
	// PlanStats returns the cumulative per-access-path Select execution
	// counts.
	PlanStats() PlanStats
	// EngineStats returns the engine's kind ("mem", "disk").
	EngineStats() EngineStats
}

// EngineStats identifies which engine implementation answers queries.
type EngineStats struct {
	// Kind names the backing engine: "mem" or "disk".
	Kind string `json:"kind"`
	// CacheHits and CacheMisses are always 0: no engine keeps a row cache.
	// They remain only because the end-to-end benchmark reads them.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
}

var (
	_ Engine = (*Store)(nil)
	_ Engine = (*Sharded)(nil)
)

// Sharded is a priority-range-partitioned Store. Immutable after
// NewSharded and safe for concurrent readers.
type Sharded struct {
	schema *dataspace.Schema
	// byRank is the full relation in descending priority order; the shards
	// alias contiguous segments of it.
	byRank []dataspace.Tuple
	shards []*Store
}

// NewSharded builds a sharded store over tuples already arranged in
// descending priority order, split into the given number of near-equal
// contiguous rank ranges. A shard count exceeding the tuple count is
// clamped, so every shard is non-empty.
func NewSharded(schema *dataspace.Schema, byRank []dataspace.Tuple, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("index: shard count must be >= 1, got %d", shards)
	}
	// One unified clamp for every relation size: a shard count above n
	// collapses to n so no shard is ever empty, and the empty relation is
	// its own floor — it still gets exactly one (empty) shard, so the
	// zero-tuple store answers through the same code path as any other.
	n := len(byRank)
	shards = min(shards, max(n, 1))
	if schema == nil {
		return nil, fmt.Errorf("index: nil schema")
	}
	// One selectivity sample over the whole relation, shared by every
	// shard: selectivity is a property of the data shape, not of any one
	// priority band, and a full-relation sample is strictly better than
	// per-shard ones. Each shard plans against its own posting lists, so
	// shards may legitimately pick different paths for the same query.
	stats := buildSelStats(schema, byRank)
	s := &Sharded{schema: schema, byRank: byRank, shards: make([]*Store, 0, shards)}
	for i := 0; i < shards; i++ {
		lo, hi := i*n/shards, (i+1)*n/shards
		st, err := newWithStats(schema, byRank[lo:hi], stats)
		if err != nil {
			return nil, fmt.Errorf("index: shard %d (ranks [%d,%d)): %w", i, lo, hi, err)
		}
		s.shards = append(s.shards, st)
	}
	return s, nil
}

// PlanStats aggregates the per-shard path counts. A Select that walks
// several shards executes one path per shard it reaches.
func (s *Sharded) PlanStats() PlanStats {
	var ps PlanStats
	for _, sh := range s.shards {
		ps.Merge(sh.PlanStats())
	}
	return ps
}

// EngineStats identifies the in-memory engine.
func (s *Sharded) EngineStats() EngineStats { return EngineStats{Kind: "mem"} }

// NumShards returns the number of priority-range partitions.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Size returns the number of tuples across all shards.
func (s *Sharded) Size() int { return len(s.byRank) }

// Schema returns the store's schema.
func (s *Sharded) Schema() *dataspace.Schema { return s.schema }

// All returns the tuples in priority order. The slice and its tuples are
// shared; callers must not mutate them.
func (s *Sharded) All() []dataspace.Tuple { return s.byRank }

// Select returns up to limit+1 tuples matching q in descending priority
// order, identical to the single-Store result. Shards are visited in
// priority order, so an overflowing query usually terminates within the
// first shard and never touches the cold tail of the store.
func (s *Sharded) Select(q dataspace.Query, limit int) []dataspace.Tuple {
	if limit < 0 {
		limit = 0
	}
	want := limit + 1
	var out []dataspace.Tuple
	for _, sh := range s.shards {
		got := sh.Select(q, want-len(out)-1)
		if out == nil {
			out = got // common case: the first shard already decides
		} else {
			out = append(out, got...)
		}
		if len(out) >= want {
			break
		}
	}
	if out == nil {
		out = []dataspace.Tuple{}
	}
	return out
}

// SelectBatch answers every query of the batch concurrently: each query
// runs Select's priority-ordered early-exit shard walk on its own
// goroutine, so a large batch saturates the cores with no redundant work —
// an overflowing query stops at the first shards that satisfy it instead
// of paying every shard for results the merge would discard, and each
// shard's own scratch pool serves whatever queries actually reach it. The
// fan-out is capped at GOMAXPROCS live goroutines, so a client-sized batch
// (the /batch endpoint accepts megabytes of queries) cannot flood the
// scheduler. Result i is exactly Select(qs[i], limit).
//
// A cancelled ctx stops the fan-out: no further queries are launched, the
// ones already in flight finish (their work is local and cannot be torn
// mid-read), and the answered prefix is returned. The ctx belongs to the
// one caller whose batch this is — concurrent SelectBatch calls from other
// sessions carry their own ctx and are untouched by this cancellation.
func (s *Sharded) SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple {
	if len(s.shards) == 1 {
		return s.shards[0].SelectBatch(ctx, qs, limit)
	}
	out := make([][]dataspace.Tuple, len(qs))
	var wg sync.WaitGroup
	gate := make(chan struct{}, runtime.GOMAXPROCS(0))
	launched := len(qs)
	for i, q := range qs {
		if ctx.Err() != nil {
			launched = i
			break
		}
		wg.Add(1)
		gate <- struct{}{}
		go func(i int, q dataspace.Query) {
			defer wg.Done()
			out[i] = s.Select(q, limit)
			<-gate
		}(i, q)
	}
	wg.Wait()
	return out[:launched]
}

// Count returns the exact number of tuples matching q: the sum of the
// per-shard counts, since the shards partition the relation. Unlike
// Select's priority-ordered early-exit walk, a count has no early exit —
// every shard must be consulted — so the per-shard counts run on
// concurrent goroutines, mirroring SelectBatch's fan-out: each shard scans
// its own columns with its own scratch memory and the partial sums land in
// distinct slots, no shared mutable state. Small stores skip the fan-out;
// goroutine overhead would dominate the per-shard scans.
func (s *Sharded) Count(q dataspace.Query) int {
	const fanOutMin = 1 << 14 // tuples; below this a serial walk is faster
	if len(s.shards) == 1 || len(s.byRank) < fanOutMin {
		c := 0
		for _, sh := range s.shards {
			c += sh.Count(q)
		}
		return c
	}
	counts := make([]int, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *Store) {
			defer wg.Done()
			counts[i] = sh.Count(q)
		}(i, sh)
	}
	wg.Wait()
	c := 0
	for _, n := range counts {
		c += n
	}
	return c
}
