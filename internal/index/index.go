// Package index implements the query-evaluation engine behind the simulated
// hidden-database server: given a form query it returns the qualifying
// tuples in descending priority order, stopping as soon as it has one more
// than the server's return limit k.
//
// # Columnar layout
//
// A row-backed Store (New) holds its tuples twice: once as the row slice
// the server hands back to callers (byRank, in descending priority order),
// and once as struct-of-arrays columns — one contiguous []int64 per
// attribute, indexed by rank. An artifact-backed Store (NewFromArtifacts)
// holds only the columns and copies result rows out of them. All predicate
// evaluation happens on the columns: checking whether the tuple at some
// rank satisfies a predicate is a single load from a dense array, with no
// per-tuple pointer chase and no per-attribute schema lookup (the
// attribute kinds are flattened into a []bool once at build time).
//
// # Access paths
//
// Five access paths are maintained and chosen between per query, the way a
// (very small) relational engine would:
//
//   - a priority-ordered columnar scan that evaluates predicates over
//     8-rank column chunks (a per-chunk survivor bitmask per predicate,
//     ANDed across predicates with early break), so the scan reads each
//     column sequentially instead of tuple-at-a-time; overflowing queries
//     terminate after k+1 matches;
//   - per-attribute secondary indexes — rank-ascending posting lists for
//     categorical equality predicates and value-sorted columns for numeric
//     ranges — cheap when one predicate is selective;
//   - the intersection of the two most selective predicates: posting ∩
//     posting via a galloping (exponential-search) merge of the two
//     rank-ascending lists, and posting ∩ range (or range ∩ range/equality)
//     via a precomputed rank→sorted-position permutation that answers "is
//     this rank inside the value range?" with one load and two compares;
//   - roaring-style bitmap intersection (bitmap.go): low-cardinality
//     categorical attributes (domain ≤ bitmapMaxDomain, store ≥
//     bitmapMinTuples) mirror each value's posting list as array / bitmap /
//     run containers over rank space, so a 2-, 3- or k-way equality
//     intersection is a word-parallel AND — 64 ranks per operation — that
//     enumerates in exactly the rank order Select must return.
//
// Every path returns the same tuples in the same order; the planner's
// choice affects time only, never results.
//
// # Cost model
//
// Costs are measured, not assumed. Each Store samples its relation at
// construction (stats.go): the scan's expected cost is want/jointSel — how
// deep the early-exiting scan must go before it has collected limit+1
// matches, with jointSel the full conjunction's selectivity evaluated on
// the sample — clamped to n. Index-path costs come from exact candidate
// counts (posting-list length, binary-searched range width) with small
// constant factors for the per-candidate work (probe ≈ 2×, sort-restoring
// range enumeration ≈ 3×), and the bitmap path costs its word-AND sweep
// (n/64 words per attribute) plus ~1.5× the expected intersection size.
// The cheapest path wins. Count runs the same planner with the scan costed
// at n, since counting cannot early-exit, and answers a bitmap plan that
// covers every bound predicate with a popcount.
//
// # Planning
//
// Every query is planned from its own values (planner.go). The crawlers
// recurse by narrowing a query, so one query shape recurs with ever tighter
// constants, and a plan memoized per shape freezes the broad first query's
// early-exit scan for every narrow query after it: under such a cache a
// YahooLike k=256 crawl ran 1063 of its 1064 Selects as scans. Planning
// reads only exact candidate counts (one map lookup or two binary searches
// per bound predicate), evaluates the sample only when the scan could win,
// and returns the plan by value: it allocates nothing (BenchmarkPlan1M).
// Store.PlanStats counts the executions of each access path.
//
// # Allocation discipline
//
// Every access path collects its result ranks in a sync.Pool-recycled rank
// buffer (the bitmap path also borrows pooled bitmap words, and the range
// path sorts with the allocation-free slices.Sort); one rows call then
// turns the ranks into tuples. Select therefore performs one allocation per
// call on a row-backed store — the result slice, sized exactly to the
// result — and two on an artifact-backed one, which adds the slab its
// copied rows are cut from, regardless of access path and result size.
// Count allocates nothing. The scratch pools are per-Store, so the shards
// of a Sharded store never contend on a shared pool.
package index

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hidb/internal/dataspace"
)

// Store holds one relation, its priority order, and its secondary indexes.
// A Store is immutable after New and safe for concurrent readers.
type Store struct {
	schema *dataspace.Schema
	// n is the relation size. For a row-backed store it equals
	// len(byRank); an artifact-backed store (NewFromArtifacts) has no
	// byRank, so the size is carried explicitly.
	n int
	// byRank lists the tuples in descending priority order: byRank[0] is
	// the tuple the server prefers to return first. nil for
	// artifact-backed stores, whose rows copies results out of cols.
	byRank []dataspace.Tuple
	// isCat flattens the schema's attribute kinds for branch-friendly
	// predicate checks.
	isCat []bool
	// cols is the columnar mirror of byRank: cols[i][r] == byRank[r][i].
	cols [][]int64
	// post[i] maps a categorical value to the ranks holding it, ascending.
	post []map[int64][]int32
	// bitmaps[i] mirrors post[i] as roaring-style rank bitmaps for
	// low-cardinality categorical attributes; nil when the attribute does
	// not qualify (numeric, wide domain, or store too small to pay off).
	bitmaps []*bitmapIndex
	// sortedVal[i] is numeric column i's values sorted ascending (ties in
	// rank order); sortedRank[i] carries the rank of each sorted cell.
	sortedVal  [][]int64
	sortedRank [][]int32
	// rankPos[i][r] is the position of rank r inside sortedVal[i] — the
	// rank→sorted-position permutation the intersection paths use to test
	// range membership in O(1).
	rankPos [][]int32
	// stats is the sampled selectivity statistics driving the cost model.
	// Shards of a Sharded store share one instance.
	stats *SelStats
	// paths counts Select executions per access path (PlanStats).
	paths [numPaths]atomic.Int64
	// scratch recycles the rank buffers every Select path collects its
	// result into (and Count's bitmap path). It is per-Store (not
	// package-global) so that independent shards of a Sharded store never
	// contend on one pool.
	scratch sync.Pool
	// words recycles the bitmapWords-long word buffers of the bitmap path.
	words sync.Pool
}

// bitmapMaxDomain is the categorical domain size up to which an attribute
// gets a bitmap index: beyond it, per-value bitmaps are too sparse to beat
// the posting list. A variable so tests can widen it.
var bitmapMaxDomain = 64

// bitmapMinTuples is the store size below which bitmap indexes are not
// built: on a store this small every column is cache-resident and the
// posting paths win outright. A variable so tests can drive the bitmap
// paths on test-sized stores.
var bitmapMinTuples = 4096

// New builds a Store over tuples already arranged in descending priority
// order. The tuples must all validate against the schema.
func New(schema *dataspace.Schema, byRank []dataspace.Tuple) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("index: nil schema")
	}
	return newWithStats(schema, byRank, nil)
}

// newWithStats builds a Store, reusing the given selectivity statistics
// when non-nil (the Sharded constructor samples the full relation once and
// shares the result across shards; selectivity is a property of the data
// shape, not of any one priority band).
func newWithStats(schema *dataspace.Schema, byRank []dataspace.Tuple, stats *SelStats) (*Store, error) {
	d := schema.Dims()
	for r, t := range byRank {
		if err := t.Validate(schema); err != nil {
			return nil, fmt.Errorf("index: tuple at rank %d: %w", r, err)
		}
	}
	n := len(byRank)
	s := &Store{
		schema:     schema,
		n:          n,
		byRank:     byRank,
		scratch:    sync.Pool{New: func() any { return new([]int32) }},
		words:      sync.Pool{New: func() any { p := make([]uint64, bitmapWords); return &p }},
		isCat:      make([]bool, d),
		cols:       make([][]int64, d),
		post:       make([]map[int64][]int32, d),
		bitmaps:    make([]*bitmapIndex, d),
		sortedVal:  make([][]int64, d),
		sortedRank: make([][]int32, d),
		rankPos:    make([][]int32, d),
		stats:      stats,
	}
	for i := 0; i < d; i++ {
		col := make([]int64, n)
		for r, t := range byRank {
			col[r] = t[i]
		}
		s.cols[i] = col
		attr := schema.Attr(i)
		if attr.Kind == dataspace.Categorical {
			s.isCat[i] = true
			m := make(map[int64][]int32)
			for r, v := range col {
				m[v] = append(m[v], int32(r))
			}
			s.post[i] = m
			if n >= bitmapMinTuples && attr.DomainSize <= bitmapMaxDomain {
				bi := &bitmapIndex{m: make(map[int64]*rankBitmap, len(m))}
				for v, list := range m {
					bi.m[v] = buildRankBitmap(list)
				}
				s.bitmaps[i] = bi
			}
		} else {
			perm := make([]int32, n)
			for r := range perm {
				perm[r] = int32(r)
			}
			sort.Slice(perm, func(a, b int) bool {
				va, vb := col[perm[a]], col[perm[b]]
				if va != vb {
					return va < vb
				}
				return perm[a] < perm[b]
			})
			vals := make([]int64, n)
			pos := make([]int32, n)
			for p, r := range perm {
				vals[p] = col[r]
				pos[r] = int32(p)
			}
			s.sortedVal[i] = vals
			s.sortedRank[i] = perm
			s.rankPos[i] = pos
		}
	}
	if s.stats == nil {
		s.stats = buildSelStats(schema, byRank)
	}
	return s, nil
}

// Artifacts is the set of prebuilt index structures an artifact-backed
// Store is assembled from: the columnar relation, the secondary indexes and
// the shared selectivity sample. A disk store builds these once at write
// time and hands Open'd slices (often aliasing read-only mmap'd file pages)
// straight to NewFromArtifacts, so the full planner and every access path
// run unchanged against storage the Store does not own. Result rows are
// copied out of Cols onto the heap; no tuple a Select returns aliases the
// artifacts.
//
// Invariants the caller must uphold (they mirror what newWithStats builds):
// Cols[i][r] is attribute i of the rank-r tuple; Post[i] maps each
// categorical value to its ranks ascending; SortedVal[i]/SortedRank[i] list
// numeric column i's values ascending (ties in rank order) with the rank of
// each sorted cell; RankPos[i][r] is rank r's position in SortedVal[i]. All
// slices are read-only after construction.
type Artifacts struct {
	// N is the relation size (every per-attribute slice has length N).
	N int
	// Cols is the columnar relation, one []int64 per attribute.
	Cols [][]int64
	// Post holds the posting-list index of each categorical attribute
	// (nil entries for numeric attributes).
	Post []map[int64][]int32
	// SortedVal, SortedRank and RankPos hold the sorted-segment index of
	// each numeric attribute (nil entries for categorical attributes).
	SortedVal  [][]int64
	SortedRank [][]int32
	RankPos    [][]int32
	// Stats is the sampled selectivity statistics; shards of one
	// partitioned store share a single instance so their plans agree
	// with the in-memory engine's.
	Stats *SelStats
}

// NewFromArtifacts builds a Store over prebuilt index structures instead of
// a materialized row slice. Bitmap indexes are derived from the posting
// lists under the same gates newWithStats applies (store size, domain
// width), so an artifact-backed store makes bit-identical plan choices to
// the in-memory store it mirrors. The artifacts are trusted (they were
// validated when built); only structural consistency is checked here.
func NewFromArtifacts(schema *dataspace.Schema, a Artifacts) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("index: nil schema")
	}
	d := schema.Dims()
	if len(a.Cols) != d || len(a.Post) != d || len(a.SortedVal) != d ||
		len(a.SortedRank) != d || len(a.RankPos) != d {
		return nil, fmt.Errorf("index: artifacts cover %d attributes, schema has %d", len(a.Cols), d)
	}
	if a.Stats == nil {
		return nil, fmt.Errorf("index: artifacts carry no selectivity statistics")
	}
	s := &Store{
		schema:     schema,
		n:          a.N,
		scratch:    sync.Pool{New: func() any { return new([]int32) }},
		words:      sync.Pool{New: func() any { p := make([]uint64, bitmapWords); return &p }},
		isCat:      make([]bool, d),
		cols:       a.Cols,
		post:       a.Post,
		bitmaps:    make([]*bitmapIndex, d),
		sortedVal:  a.SortedVal,
		sortedRank: a.SortedRank,
		rankPos:    a.RankPos,
		stats:      a.Stats,
	}
	for i := 0; i < d; i++ {
		attr := schema.Attr(i)
		if len(a.Cols[i]) != a.N {
			return nil, fmt.Errorf("index: attribute %d column holds %d values, want %d", i, len(a.Cols[i]), a.N)
		}
		if attr.Kind == dataspace.Categorical {
			s.isCat[i] = true
			if a.Post[i] == nil {
				return nil, fmt.Errorf("index: categorical attribute %d has no posting index", i)
			}
			if a.N >= bitmapMinTuples && attr.DomainSize <= bitmapMaxDomain {
				bi := &bitmapIndex{m: make(map[int64]*rankBitmap, len(a.Post[i]))}
				for v, list := range a.Post[i] {
					bi.m[v] = buildRankBitmap(list)
				}
				s.bitmaps[i] = bi
			}
		} else {
			if len(a.SortedVal[i]) != a.N || len(a.SortedRank[i]) != a.N || len(a.RankPos[i]) != a.N {
				return nil, fmt.Errorf("index: numeric attribute %d sorted segment is inconsistent with n=%d", i, a.N)
			}
		}
	}
	return s, nil
}

// rows turns result ranks into tuples. A row-backed store returns its
// shared byRank tuples. An artifact-backed store copies each rank's d words
// out of cols into one exact-size slab allocated per call: the tuples are
// fresh heap copies, never views into the (possibly read-only, mapped)
// artifacts, so a caller may keep or even write them. Retention rule: the
// tuples of one call share that slab — at most (limit+1)·d words for a
// Select — so keeping any one of them keeps the whole slab alive.
func (s *Store) rows(ranks []int32) []dataspace.Tuple {
	out := make([]dataspace.Tuple, len(ranks))
	if s.byRank != nil {
		for i, r := range ranks {
			out[i] = s.byRank[r]
		}
		return out
	}
	d := len(s.cols)
	slab := make([]int64, len(ranks)*d)
	for a, col := range s.cols {
		for i, r := range ranks {
			slab[i*d+a] = col[r]
		}
	}
	for i := range out {
		out[i] = slab[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// Size returns the number of tuples in the store.
func (s *Store) Size() int { return s.n }

// Schema returns the store's schema.
func (s *Store) Schema() *dataspace.Schema { return s.schema }

// All returns the tuples in priority order. For a row-backed store the
// slice and its tuples are shared and must not be mutated; an
// artifact-backed store copies every row through rows — callers that only
// need a subset should Select instead.
func (s *Store) All() []dataspace.Tuple {
	if s.byRank != nil || s.n == 0 {
		return s.byRank
	}
	ranks := make([]int32, s.n)
	for r := range ranks {
		ranks[r] = int32(r)
	}
	return s.rows(ranks)
}

// EngineStats identifies the in-memory engine. Engines built over
// artifacts report their own kind.
func (s *Store) EngineStats() EngineStats { return EngineStats{Kind: "mem"} }

// Stats returns the store's sampled selectivity statistics.
func (s *Store) Stats() *SelStats { return s.stats }

// PlanStats returns the per-access-path Select execution counts.
func (s *Store) PlanStats() PlanStats {
	ps := PlanStats{Paths: make(map[string]int64, numPaths)}
	for i, name := range pathNames {
		if v := s.paths[i].Load(); v != 0 {
			ps.Paths[name] = v
		}
	}
	return ps
}

// coversAt reports whether the tuple at rank r satisfies every predicate,
// reading the columns directly.
func (s *Store) coversAt(preds []dataspace.Pred, r int32) bool {
	for i := range preds {
		p := &preds[i]
		v := s.cols[i][r]
		if s.isCat[i] {
			if !p.Wild && v != p.Value {
				return false
			}
		} else if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// coversAtSkip is coversAt with the attributes in the skip bitmask assumed
// satisfied — the bitmap path's residual check, which never re-tests the
// equality predicates the bitmap intersection already enforced.
func (s *Store) coversAtSkip(preds []dataspace.Pred, r int32, skip uint64) bool {
	for i := range preds {
		if skip>>uint(i)&1 != 0 {
			continue
		}
		p := &preds[i]
		v := s.cols[i][r]
		if s.isCat[i] {
			if !p.Wild && v != p.Value {
				return false
			}
		} else if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// lowerBound returns the first index with vals[i] >= x.
func lowerBound(vals []int64, x int64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rangeBounds returns the half-open segment of the sorted column whose
// values lie in [lo, hi]. An inverted range (lo > hi, constructible via
// Query.WithRange, which never validates) clamps to an empty segment so
// the planner sees zero candidates instead of a negative count.
func rangeBounds(vals []int64, lo, hi int64) (from, to int) {
	from = lowerBound(vals, lo)
	to = lowerBound(vals, hi+1)
	if to < from {
		to = from
	}
	return from, to
}

// getScratch returns a pooled rank buffer with at least the given capacity,
// so a steady query stream allocates nothing beyond its results.
func (s *Store) getScratch(capacity int) *[]int32 {
	p := s.scratch.Get().(*[]int32)
	if cap(*p) < capacity {
		*p = make([]int32, 0, capacity)
	}
	return p
}

// Select returns up to limit+1 tuples matching q, in descending priority
// order. Returning limit+1 tuples signals the caller that the true result
// exceeds limit (the server's overflow condition). On a row-backed store the
// returned tuples share storage with the store and must not be mutated; an
// artifact-backed store returns fresh copies (see rows).
func (s *Store) Select(q dataspace.Query, limit int) []dataspace.Tuple {
	if limit < 0 {
		limit = 0
	}
	want := limit + 1
	preds := q.Preds()
	return s.execSelect(s.planQuery(preds, want), preds, want)
}

// execSelect runs a plan's access path, which appends at most want result
// ranks to a pooled rank buffer, counts the execution, and turns the ranks
// into tuples with one rows call.
func (s *Store) execSelect(pl plan, preds []dataspace.Pred, want int) []dataspace.Tuple {
	s.paths[pl.path].Add(1)
	bufp := s.getScratch(min(want, s.n))
	ranks := (*bufp)[:0]
	switch pl.path {
	case pathPosting:
		ranks = s.selectPosting(ranks, preds, pl, want)
	case pathGallop:
		ranks = s.selectGallop(ranks, preds, pl, want)
	case pathRange:
		ranks = s.selectRange(ranks, preds, pl, want)
	case pathBitmap:
		ranks = s.selectBitmap(ranks, preds, pl, want)
	default:
		ranks = s.selectScan(ranks, preds, want)
	}
	out := s.rows(ranks)
	*bufp = ranks[:0]
	s.scratch.Put(bufp)
	return out
}

// scanChunk is the rank-block width of the chunked scan: 8 ranks per mask
// keeps the per-predicate inner loop unrollable while a chunk of every
// column still fits comfortably in L1.
const scanChunk = 8

// selectScan is the priority-ordered columnar scan, evaluated in
// scanChunk-wide column chunks: each bound predicate computes a survivor
// bitmask over the chunk from one sequential column read, the masks AND
// together (with an early break when a chunk dies), and only survivors are
// emitted — in rank order, since bit i of the mask is rank base+i.
func (s *Store) selectScan(ranks []int32, preds []dataspace.Pred, want int) []int32 {
	n := s.n
	base := 0
	for ; base+scanChunk <= n; base += scanChunk {
		mask := s.chunkMask(preds, base)
		for mask != 0 {
			b := bits.TrailingZeros32(mask)
			mask &= mask - 1
			ranks = append(ranks, int32(base+b))
			if len(ranks) == want {
				return ranks
			}
		}
	}
	for r := base; r < n; r++ {
		if s.coversAt(preds, int32(r)) {
			ranks = append(ranks, int32(r))
			if len(ranks) == want {
				break
			}
		}
	}
	return ranks
}

// chunkMask evaluates every bound predicate over the scanChunk ranks at
// base, returning the bitmask of ranks satisfying all of them.
func (s *Store) chunkMask(preds []dataspace.Pred, base int) uint32 {
	mask := uint32(1<<scanChunk - 1)
	for i := range preds {
		p := &preds[i]
		var m uint32
		if s.isCat[i] {
			if p.Wild {
				continue
			}
			col := s.cols[i][base : base+scanChunk : base+scanChunk]
			v := p.Value
			for j := 0; j < scanChunk; j++ {
				if col[j] == v {
					m |= 1 << uint(j)
				}
			}
		} else {
			if p.Lo == dataspace.NegInf && p.Hi == dataspace.PosInf {
				continue
			}
			col := s.cols[i][base : base+scanChunk : base+scanChunk]
			lo, hi := p.Lo, p.Hi
			for j := 0; j < scanChunk; j++ {
				if v := col[j]; v >= lo && v <= hi {
					m |= 1 << uint(j)
				}
			}
		}
		mask &= m
		if mask == 0 {
			break
		}
	}
	return mask
}

// planBitmaps fetches the rank bitmaps of the equality predicates on the
// attributes in set into arr, sparsest first so it drives the block walk.
// ok=false means some value occurs nowhere: the intersection is empty.
func (s *Store) planBitmaps(preds []dataspace.Pred, set uint64, arr *[bitmapMaxDims]*rankBitmap) (bms []*rankBitmap, ok bool) {
	bms = arr[:0]
	for ; set != 0; set &= set - 1 {
		a := bits.TrailingZeros64(set)
		bm := s.bitmaps[a].get(preds[a].Value)
		if bm == nil {
			return nil, false
		}
		bms = append(bms, bm)
	}
	for i := 1; i < len(bms); i++ {
		for j := i; j > 0 && bms[j].card < bms[j-1].card; j-- {
			bms[j], bms[j-1] = bms[j-1], bms[j]
		}
	}
	return bms, true
}

// selectBitmap intersects the rank bitmaps of the plan's equality
// predicates into the rank buffer (ascending — already priority order) and
// applies the residual predicates, if any, per surviving rank, compacting
// the buffer in place. A plan whose bitmaps cover every bound predicate
// (pl.exact) needs no residual pass and lets the intersection stop at want
// ranks.
func (s *Store) selectBitmap(ranks []int32, preds []dataspace.Pred, pl plan, want int) []int32 {
	var arr [bitmapMaxDims]*rankBitmap
	bms, ok := s.planBitmaps(preds, pl.bitmapSkip, &arr)
	if !ok {
		return ranks
	}
	maxRanks := -1
	if pl.exact {
		maxRanks = want
	}
	wordsp := s.words.Get().(*[]uint64)
	ranks = intersectInto(bms, *wordsp, ranks, maxRanks)
	s.words.Put(wordsp)
	if pl.exact {
		return ranks
	}
	return s.keepCovered(ranks, preds, pl.bitmapSkip, want)
}

// keepCovered compacts ranks in place to its first want entries (all of
// them when want < 0) that satisfy every predicate outside the skip
// bitmask.
func (s *Store) keepCovered(ranks []int32, preds []dataspace.Pred, skip uint64, want int) []int32 {
	kept := ranks[:0]
	for _, r := range ranks {
		if s.coversAtSkip(preds, r, skip) {
			kept = append(kept, r)
			if len(kept) == want {
				break
			}
		}
	}
	return kept
}

// useGallop decides how a posting ∩ posting intersection tests membership
// of each driving-list rank in the secondary list: a galloping cursor over
// the secondary list versus one load from the secondary attribute's column.
// The driving (shorter) list is walked in full either way, so this is a
// per-candidate cost question. Measured on the paper's workloads (n ≈ 50k,
// every column L2-resident) the single predictable column load beats the
// ~log2(m2) branchy probes of galloping decisively — Figure 11a runs ~30%
// faster on column probes. Galloping pays off only when the column itself
// falls out of cache (multi-million-row stores) while the secondary list
// stays small enough to remain resident.
//
// The intersection filter is intentionally open-coded in selectPosting,
// selectGallop and Count's posting and gallop branches rather than shared
// through a per-rank callback: the loops capture their accumulators (the
// rank buffer / the counter), so a closure-based iterator would escape
// them to the heap and break the one-allocation Select contract the
// benchmarks pin. TestGallopPathsMatchColumnProbe keeps the copies equivalent.
func useGallop(m2, n int) bool {
	return m2 <= 2048 && n >= colCacheTuples
}

// colCacheTuples is the store size (8-byte column cells, ~32 MiB — a
// typical LLC) beyond which columns stop being cache-resident. It is a
// variable only so tests can lower it to drive the galloping paths on
// test-sized stores.
var colCacheTuples = 4 << 20

// selectPosting walks the primary posting list (already rank-ascending),
// rejecting candidates with the cheapest test for the secondary predicate —
// a rank→sorted-position window check (numeric) or a single column load
// (categorical) — before the full predicate check.
func (s *Store) selectPosting(ranks []int32, preds []dataspace.Pred, pl plan, want int) []int32 {
	var pos []int32
	var col []int64
	var secVal int64
	if pl.secondary >= 0 {
		if s.isCat[pl.secondary] {
			col = s.cols[pl.secondary]
			secVal = preds[pl.secondary].Value
		} else {
			pos = s.rankPos[pl.secondary]
		}
	}
	for _, r := range pl.list {
		if pos != nil {
			if p := pos[r]; p < pl.secFrom || p >= pl.secTo {
				continue
			}
		} else if col != nil && col[r] != secVal {
			continue
		}
		if s.coversAt(preds, r) {
			ranks = append(ranks, r)
			if len(ranks) == want {
				break
			}
		}
	}
	return ranks
}

// selectGallop intersects the two posting lists with a galloping merge:
// the shorter list (the primary) drives, and the cursor into the longer
// one advances by exponential search, skipping runs of non-matching ranks.
func (s *Store) selectGallop(ranks []int32, preds []dataspace.Pred, pl plan, want int) []int32 {
	a, b := pl.list, pl.secList
	j := 0
	for _, r := range a {
		j = gallop(b, j, r)
		if j == len(b) {
			break
		}
		if b[j] != r {
			continue
		}
		if s.coversAt(preds, r) {
			ranks = append(ranks, r)
			if len(ranks) == want {
				break
			}
		}
	}
	return ranks
}

// gallop returns the smallest index >= lo with b[idx] >= target, probing
// exponentially and finishing with a binary search over the final window.
func gallop(b []int32, lo int, target int32) int {
	n := len(b)
	if lo >= n || b[lo] >= target {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < n && b[hi] < target {
		lo = hi
		hi += step
		step <<= 1
	}
	if hi > n {
		hi = n
	}
	// Invariant: b[lo] < target and (hi == n or b[hi] >= target).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// selectRange enumerates the primary sorted-column segment into the rank
// buffer, filters by the secondary predicate while the ranks are still in
// value order, restores rank order with one allocation-free sort, then
// compacts the buffer in place to the first want full matches.
func (s *Store) selectRange(ranks []int32, preds []dataspace.Pred, pl plan, want int) []int32 {
	seg := s.sortedRank[pl.primary][pl.from:pl.to]
	ranks = slices.Grow(ranks, len(seg))
	switch {
	case pl.secondary < 0:
		ranks = append(ranks, seg...)
	case s.isCat[pl.secondary]:
		col := s.cols[pl.secondary]
		v := preds[pl.secondary].Value
		for _, r := range seg {
			if col[r] == v {
				ranks = append(ranks, r)
			}
		}
	default:
		pos := s.rankPos[pl.secondary]
		for _, r := range seg {
			if p := pos[r]; p >= pl.secFrom && p < pl.secTo {
				ranks = append(ranks, r)
			}
		}
	}
	slices.Sort(ranks)
	return s.keepCovered(ranks, preds, 0, want)
}

// SelectBatch answers every query of the batch with the same semantics as
// issuing B Select calls in order: result i is exactly Select(qs[i], limit).
// A single Store evaluates the batch sequentially; the Sharded store
// overrides this with a per-shard parallel fan-out. A cancelled ctx stops
// the evaluation between queries: the answered prefix is returned and the
// caller reads ctx.Err() — with a live ctx the result is always complete,
// so cancellation support can never change what a batch answers.
func (s *Store) SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple {
	out := make([][]dataspace.Tuple, 0, len(qs))
	for _, q := range qs {
		if ctx.Err() != nil {
			return out
		}
		out = append(out, s.Select(q, limit))
	}
	return out
}

// countBitmap counts a bitmap plan's matches: a popcount of the
// intersection when the bitmaps enforce every bound predicate, otherwise
// the residual check over the intersected ranks.
func (s *Store) countBitmap(preds []dataspace.Pred, pl plan) int {
	var arr [bitmapMaxDims]*rankBitmap
	bms, ok := s.planBitmaps(preds, pl.bitmapSkip, &arr)
	if !ok {
		return 0
	}
	wordsp := s.words.Get().(*[]uint64)
	defer s.words.Put(wordsp)
	if pl.exact {
		return intersectCount(bms, *wordsp)
	}
	bufp := s.getScratch(1 << 10)
	ranks := s.keepCovered(intersectInto(bms, *wordsp, (*bufp)[:0], -1), preds, pl.bitmapSkip, -1)
	*bufp = ranks[:0]
	s.scratch.Put(bufp)
	return len(ranks)
}

// Count returns the exact number of tuples matching q. It runs Select's
// planner with want = n, since counting cannot early-exit; result order is
// irrelevant, so no sorting or allocation happens on any path.
func (s *Store) Count(q dataspace.Query) int {
	n := s.n
	preds := q.Preds()
	pl := s.planQuery(preds, n)
	switch {
	case pl.bound == 0:
		return n
	case pl.bound == 1:
		// A single bound predicate: its candidate count is exact.
		return pl.m
	}
	c := 0
	switch pl.path {
	case pathScan:
		base := 0
		for ; base+scanChunk <= n; base += scanChunk {
			c += bits.OnesCount32(s.chunkMask(preds, base))
		}
		for r := base; r < n; r++ {
			if s.coversAt(preds, int32(r)) {
				c++
			}
		}
	case pathBitmap:
		c = s.countBitmap(preds, pl)
	case pathGallop:
		b := pl.secList
		j := 0
		for _, r := range pl.list {
			j = gallop(b, j, r)
			if j == len(b) {
				break
			}
			if b[j] == r && s.coversAt(preds, r) {
				c++
			}
		}
	case pathPosting:
		var pos []int32
		var col []int64
		var secVal int64
		if pl.secondary >= 0 {
			if s.isCat[pl.secondary] {
				col = s.cols[pl.secondary]
				secVal = preds[pl.secondary].Value
			} else {
				pos = s.rankPos[pl.secondary]
			}
		}
		for _, r := range pl.list {
			if pos != nil {
				if p := pos[r]; p < pl.secFrom || p >= pl.secTo {
					continue
				}
			} else if col != nil && col[r] != secVal {
				continue
			}
			if s.coversAt(preds, r) {
				c++
			}
		}
	default:
		for _, r := range s.sortedRank[pl.primary][pl.from:pl.to] {
			if s.coversAt(preds, r) {
				c++
			}
		}
	}
	return c
}
