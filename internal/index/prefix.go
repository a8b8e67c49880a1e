// The parent-node memo of the bitmap path.
//
// The paper's extended DFS issues the children of an overflowing node one
// after another, and each child's query is its parent's conjunction plus
// one equality on the next attribute. So a bitmap plan of three or more
// bitmaps usually shares all but its highest attribute's equality with the
// plan just before it. A Store memoizes the full, rank-ascending
// intersection of that shared prefix, the parent node, and answers each
// further sibling by walking it like a posting list: one column load per
// memoized rank instead of a multi-way intersection per block. This is the
// MonetDB Recycler's reuse of an intermediate result across queries that
// share a sub-expression (Ivanova et al., SIGMOD 2009).
//
// The memo is a fixed handful of slots, a parent node hashing to one of
// them. A slot holds one immutable entry, published through an atomic
// pointer, so concurrent Selects read it without a lock and a miss
// replaces it whole: the last writer wins and no reader ever sees a torn
// entry. A parent is memoized only when its slot's previous query asked
// for it too. Computing the prefix and walking it costs a little more than
// the kernel, and only later siblings repay it: the sequential DFS asks a
// parent's children back to back, so it pays one kernel more per parent,
// while a parallel crawl interleaves the children of dozens of parents,
// whose misses then run the plain kernel instead of evicting each other's
// entries.
package index

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"hidb/internal/dataspace"
)

// prefixSlots is the number of memo slots a Store keeps.
const prefixSlots = 8

// prefixSlot is one memo slot: the entry it holds and the hash of the
// parent node its last query asked for.
type prefixSlot struct {
	entry atomic.Pointer[prefixMemo]
	seen  atomic.Uint64
}

// prefixMemo is one memoized parent node: the full, rank-ascending
// intersection of the equalities on the attributes of set, vals[i] being
// the value on set's i-th lowest attribute.
type prefixMemo struct {
	set   uint64
	vals  [bitmapMaxDims]int64
	ranks []int32
}

// matches reports whether m memoizes the equalities of preds on the
// attributes of set. A nil entry matches nothing.
func (m *prefixMemo) matches(set uint64, preds []dataspace.Pred) bool {
	if m == nil || m.set != set {
		return false
	}
	for i := 0; set != 0; set &= set - 1 {
		if preds[bits.TrailingZeros64(set)].Value != m.vals[i] {
			return false
		}
		i++
	}
	return true
}

// prefixHash hashes the equalities of preds on the attributes of set.
func prefixHash(set uint64, preds []dataspace.Pred) uint64 {
	h := set
	for ; set != 0; set &= set - 1 {
		h = h*31 + uint64(preds[bits.TrailingZeros64(set)].Value)
	}
	return h * 0x9E3779B97F4A7C15
}

// prefixList returns the memoized intersection of a bitmap plan's
// equalities on every attribute of set but the highest, and ok=true when
// walking it beats the kernel. bms are the plan's bitmaps, at least three.
// The choice uses the planner's own costs: the walk is a posting walk over
// the prefix's ranks, the kernel the plan's bitmap cost. On a miss the
// prefix's size is the planner's independence estimate; a prefix
// estimated to pay is memoized, replacing its slot's entry, when the
// slot's previous query asked for it too.
func (s *Store) prefixList(preds []dataspace.Pred, set uint64, bms []*rankBitmap) (list []int32, ok bool) {
	last := bits.Len64(set) - 1
	prefix := set &^ (1 << uint(last))
	lastBm := s.bitmaps[last].get(preds[last].Value)
	n := float64(s.n)
	sel := 1.0
	for _, bm := range bms {
		sel *= float64(bm.card) / n
	}
	kernel := bitmapCost(s.n, len(bms), sel)
	h := prefixHash(prefix, preds)
	slot := &s.prefix[h>>32%prefixSlots]
	prev := slot.seen.Swap(h)
	m := slot.entry.Load()
	if !m.matches(prefix, preds) {
		if prev != h || postingCost(int(sel*n*n/float64(lastBm.card))) >= kernel {
			return nil, false
		}
		var arr [bitmapMaxDims]*rankBitmap
		pbms := arr[:0]
		for _, bm := range bms {
			if bm != lastBm {
				pbms = append(pbms, bm)
			}
		}
		m = s.memoize(prefix, preds, pbms)
		slot.entry.Store(m)
	}
	return m.ranks, postingCost(len(m.ranks)) < kernel
}

// memoize intersects bms, the bitmaps of preds' equalities on the
// attributes of set, into a pooled rank buffer and returns a memo entry
// holding a copy. The entry and its rank list are its only allocations.
func (s *Store) memoize(set uint64, preds []dataspace.Pred, bms []*rankBitmap) *prefixMemo {
	bufp := s.getScratch(0)
	wordsp := s.words.Get().(*[]uint64)
	buf := intersectInto(bms, *wordsp, (*bufp)[:0], -1)
	s.words.Put(wordsp)
	m := &prefixMemo{set: set, ranks: slices.Clone(buf)}
	*bufp = buf[:0]
	s.scratch.Put(bufp)
	for i := 0; set != 0; set &= set - 1 {
		m.vals[i] = preds[bits.TrailingZeros64(set)].Value
		i++
	}
	return m
}
