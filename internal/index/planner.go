// The per-query planner.
//
// planQuery picks one query's access path from the query's own values and
// returns the plan by value: candidate counts are exact (posting-list
// lengths, binary-searched range widths), the bitmap attributes travel as a
// bitmask, and the sampled scan cost is evaluated only when an index path
// could lose to it. Planning therefore allocates nothing, and its cost is a
// map lookup per bound equality plus two binary searches per bound range.
package index

import (
	"math"
	"math/bits"

	"hidb/internal/dataspace"
)

// pathKind identifies one access path of the engine.
type pathKind uint8

const (
	pathScan    pathKind = iota // chunked priority-order columnar scan
	pathPosting                 // posting-list walk, optional secondary probe
	pathRange                   // sorted-segment enumeration + rank re-sort
	pathBitmap                  // word-parallel bitmap AND
	numPaths
)

// pathNames maps pathKind to the stable names PlanStats reports.
var pathNames = [numPaths]string{"scan", "posting", "range", "bitmap"}

// bitmapMaxDims is the widest schema whose equality predicates the bitmap
// path serves: its attribute set fits the plan's bitmask, and a stack array
// of this many bitmaps or cursors holds any intersection.
const bitmapMaxDims = 32

// plan is one query's execution plan: the chosen access path plus the
// value-specific artifacts every path needs. planQuery fills the index
// artifacts whatever path wins, so a test can force any path on the same
// plan.
type plan struct {
	path pathKind
	// primary is the attribute with the fewest candidates (-1 when no
	// predicate is bound), and m its exact candidate count.
	primary, m int
	// list is the primary posting list (categorical primary).
	list []int32
	// from, to bound the primary sorted-column segment (numeric primary).
	from, to int
	// secondary is the attribute with the second-fewest candidates; -1 = none.
	secondary int
	// secFrom, secTo bound the secondary rank→sorted-position window
	// (numeric secondary).
	secFrom, secTo int32
	// bitmapSkip is the set of bitmap-indexed equality attributes the bitmap
	// path ANDs, as a bitmask (also the skip set of its residual check).
	bitmapSkip uint64
	// exact marks a bitmap set that enforces every bound predicate: no
	// residual pass, and the intersection may stop at want ranks.
	exact bool
	// bound counts the predicates that constrain the query at all.
	bound int
}

// enforced is the skip set of the posting and range paths' residual
// check: the primary and secondary, whose predicates their posting list or
// sorted segment and secondary probe enforce exactly. An attribute of -1
// (none) or from 64 up shifts out of the mask, so it is never skipped.
func (pl *plan) enforced() uint64 {
	return 1<<uint(pl.primary) | 1<<uint(pl.secondary)
}

// planQuery chooses the cheapest access path for a query that must return
// want matches (see the package comment's cost model). A want of n or more
// enumerates every match, so the scan costs n and the sample is never read.
func (s *Store) planQuery(preds []dataspace.Pred, want int) plan {
	n := s.n
	pl := plan{primary: -1, secondary: -1}
	var m2, from2, to2 int
	bmSel := 1.0
	useBitmaps := len(preds) <= bitmapMaxDims
	for i := range preds {
		p := &preds[i]
		var m, from, to int
		var list []int32
		if s.isCat[i] {
			if p.Wild {
				continue
			}
			list = s.post[i][p.Value]
			m = len(list)
			if useBitmaps && s.bitmaps[i] != nil {
				pl.bitmapSkip |= 1 << uint(i)
				bmSel *= float64(m) / float64(n)
			}
		} else {
			if p.Lo == dataspace.NegInf && p.Hi == dataspace.PosInf {
				continue
			}
			from, to = rangeBounds(s.sortedVal[i], p.Lo, p.Hi)
			m = to - from
		}
		pl.bound++
		switch {
		case pl.primary < 0 || m < pl.m:
			pl.secondary, m2, from2, to2 = pl.primary, pl.m, pl.from, pl.to
			pl.primary, pl.m, pl.list, pl.from, pl.to = i, m, list, from, to
		case pl.secondary < 0 || m < m2:
			pl.secondary, m2, from2, to2 = i, m, from, to
		}
	}
	if pl.secondary >= 0 && !s.isCat[pl.secondary] {
		pl.secFrom, pl.secTo = int32(from2), int32(to2)
	}
	nBitmaps := bits.OnesCount64(pl.bitmapSkip)
	pl.exact = nBitmaps == pl.bound

	idxCost, idxPath := math.Inf(1), pathScan
	if pl.primary >= 0 {
		if s.isCat[pl.primary] {
			idxCost, idxPath = postingCost(pl.m), pathPosting
		} else {
			// Range enumeration pays an extra rank re-sort.
			idxCost, idxPath = 3*float64(pl.m), pathRange
		}
	}
	bmCost := math.Inf(1)
	if nBitmaps >= 2 {
		bmCost = bitmapCost(n, nBitmaps, bmSel)
	}
	// Expected ranks the chunked scan reads before collecting want matches:
	// want/jointSel clamped to n. Since jointSel ≤ 1 it is never below
	// min(want, n), so the sample is evaluated only when no index path
	// beats that floor — the choice is the same either way.
	scanCost := float64(min(want, n))
	if want < n && min(idxCost, bmCost) >= scanCost {
		scanCost = min(float64(n), float64(want)/s.stats.jointSel(preds))
	}

	pl.path = pathScan
	best := scanCost
	if idxCost < best {
		best, pl.path = idxCost, idxPath
	}
	if bmCost < best {
		pl.path = pathBitmap
	}
	return pl
}

// postingCost is the posting walk's cost over a list of m candidates: one
// secondary probe plus one residual check per candidate.
func postingCost(m int) float64 { return 2 * float64(m) }

// bitmapCost is the bitmap path's cost over an n-rank store: a
// word-parallel AND over every block of its nBitmaps bitmaps (the dense
// kernel; blocks that run the probe kernel cost less) plus the emission of
// the expected intersection, sel being its independence estimate from
// exact per-value frequencies.
func bitmapCost(n, nBitmaps int, sel float64) float64 {
	return float64(n)/64*float64(nBitmaps) + 1.5*float64(n)*sel
}

// PlanStats reports how many times each access path executed a Select,
// cumulative since Store construction.
type PlanStats struct {
	// Hits and Misses always read 0. They counted a per-shape plan cache
	// the planner no longer has (every query is planned from its own
	// values) and remain only for callers compiled against them.
	Hits   int64 `json:"-"`
	Misses int64 `json:"-"`
	// Paths counts Select executions per access path, keyed "scan",
	// "posting", "range", "bitmap".
	Paths map[string]int64 `json:"paths,omitempty"`
}

// HitRate always returns 0; see Hits.
func (ps PlanStats) HitRate() float64 { return 0 }

// Merge accumulates o into ps — the aggregation Sharded uses to report one
// planner view over its partitions.
func (ps *PlanStats) Merge(o PlanStats) {
	if ps.Paths == nil {
		ps.Paths = make(map[string]int64, numPaths)
	}
	for k, v := range o.Paths {
		ps.Paths[k] += v
	}
}
