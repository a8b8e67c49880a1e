package index

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
)

// prefixOf is the parent node C1=c1 ∧ C2=c2 of the tier schema, whose
// children bind C3, the highest bitmap-indexed attribute.
func prefixOf(s *Store, c1, c2 int64) dataspace.Query {
	return dataspace.UniverseQuery(s.Schema()).WithValue(0, c1).WithValue(1, c2)
}

// checkBitmapPath runs q on the bitmap path, forced whatever the planner
// picks, and through Select, and fails unless both return naive's first
// want tuples.
func checkBitmapPath(t *testing.T, s *Store, q dataspace.Query, want int) {
	t.Helper()
	preds := q.Preds()
	pl, ok := forcePlan(s, preds, want, pathBitmap)
	if !ok {
		t.Fatalf("%s has no bitmap plan", q)
	}
	expect := naive(s, q, want)
	if got := s.execSelect(pl, preds, want); !sameTuples(got, expect) {
		t.Fatalf("bitmap path returned %d tuples, naive %d, on %s (want %d)", len(got), len(expect), q, want)
	}
	if got := s.Select(q, want-1); !sameTuples(got, expect) {
		t.Fatalf("Select returned %d tuples, naive %d, on %s (want %d)", len(got), len(expect), q, want)
	}
}

// prefixRanks is the reference prefix intersection: every rank whose tuple
// q covers, ascending.
func prefixRanks(s *Store, q dataspace.Query) []int32 {
	var ranks []int32
	for r, tu := range all(s) {
		if q.Covers(tu) {
			ranks = append(ranks, int32(r))
		}
	}
	return ranks
}

// slotOf returns the memo slot of prefix's parent node, the equalities
// prefix binds.
func slotOf(s *Store, prefix dataspace.Query) *prefixSlot {
	preds := prefix.Preds()
	var set uint64
	for i, p := range preds {
		if s.isCat[i] && !p.Wild {
			set |= 1 << uint(i)
		}
	}
	return &s.prefix[prefixHash(set, preds)>>32%prefixSlots]
}

// entryFor returns the memo entry in the slot of prefix's parent node.
func entryFor(s *Store, prefix dataspace.Query) *prefixMemo {
	return slotOf(s, prefix).entry.Load()
}

// walks reports whether q's bitmap plan walks the memo, as a Select would:
// on a miss it counts as one, and may memoize q's parent node.
func walks(s *Store, q dataspace.Query) bool {
	preds := q.Preds()
	pl := s.planQuery(preds, 65)
	var arr [bitmapMaxDims]*rankBitmap
	bms, ok := s.planBitmaps(preds, pl.bitmapSkip, &arr)
	if !ok || len(bms) < 3 {
		return false
	}
	_, ok = s.prefixList(preds, pl.bitmapSkip, bms)
	return ok
}

// TestPrefixMemoMatchesNaive is the memo's differential test on the 10k
// Pathological tier, whose C1..C3 carry bitmap indexes: every answer of a
// sequence that hits, misses or bypasses the memo must equal a naive
// filter over the rows, on the forced bitmap path and through Select, at a
// truncating want and at the full enumeration, for exact plans and plans
// with a numeric residual.
func TestPrefixMemoMatchesNaive(t *testing.T) {
	s := tierStore(t, datagen.PatternPathological, 37)
	n := s.Size()
	residual := func(q dataspace.Query) dataspace.Query { return q.WithRange(4, 0, int64(n/2)) }
	wants := []int{1, 65, n + 1}

	t.Run("DFS sibling order", func(t *testing.T) {
		prefix := prefixOf(s, datagen.PathoNeedle, 2)
		if q := prefix.WithValue(2, 1); walks(s, q) || !walks(s, q) {
			t.Fatal("the parent node was not memoized on exactly its second miss")
		}
		entry := entryFor(s, prefix)
		if got, want := entry.ranks, prefixRanks(s, prefix); !slices.Equal(got, want) {
			t.Fatalf("memoized %d prefix ranks, want the %d of %s", len(got), len(want), prefix)
		}
		for v := int64(1); v <= 32; v++ {
			q := prefix.WithValue(2, v)
			if !walks(s, q) {
				t.Fatalf("%s does not walk the memo", q)
			}
			for _, want := range wants {
				checkBitmapPath(t, s, q, want)
				checkBitmapPath(t, s, residual(q), want)
			}
			if entryFor(s, prefix) != entry {
				t.Fatalf("sibling %d replaced the memo entry", v)
			}
		}
	})

	t.Run("interleaved prefixes", func(t *testing.T) {
		// The first two share a slot. The first, memoized above, keeps
		// hitting; the second keeps missing and is never memoized, as its
		// slot's previous query always asked for the first. The third has
		// a slot of its own and is memoized on its second query.
		prefixes := []dataspace.Query{
			prefixOf(s, datagen.PathoNeedle, 2),
			prefixOf(s, datagen.PathoNeedle, 7),
			prefixOf(s, 2, 5),
		}
		if slotOf(s, prefixes[0]) != slotOf(s, prefixes[1]) || slotOf(s, prefixes[0]) == slotOf(s, prefixes[2]) {
			t.Fatal("the prefixes no longer hash to the slots the case needs")
		}
		for v := int64(1); v <= 32; v++ {
			for _, want := range wants {
				for i, prefix := range prefixes {
					q := prefix.WithValue(2, v)
					if i%2 == 1 {
						q = residual(q)
					}
					preds := q.Preds()
					pl, _ := forcePlan(s, preds, want, pathBitmap)
					if got, expect := s.execSelect(pl, preds, want), naive(s, q, want); !sameTuples(got, expect) {
						t.Fatalf("bitmap path returned %d tuples, naive %d, on %s (want %d)", len(got), len(expect), q, want)
					}
				}
			}
		}
		for i, memoized := range []bool{true, false, true} {
			if got := entryFor(s, prefixes[i]).matches(0b11, prefixes[i].Preds()); got != memoized {
				t.Errorf("prefix %d memoized: %v, want %v", i, got, memoized)
			}
		}
	})

	t.Run("same query twice", func(t *testing.T) {
		q := prefixOf(s, 4, datagen.PathoNeedle).WithValue(2, 9)
		for i := 0; i < 2; i++ {
			checkBitmapPath(t, s, q, 65)
			checkBitmapPath(t, s, residual(q), n+1)
		}
	})

	t.Run("absent prefix value", func(t *testing.T) {
		checkBitmapPath(t, s, prefixOf(s, datagen.PathoNeedle, 2).WithValue(2, 3), 65)
		var entries [prefixSlots]*prefixMemo
		for i := range entries {
			entries[i] = s.prefix[i].entry.Load()
		}
		for _, c2 := range []int64{0, 33} {
			q := prefixOf(s, datagen.PathoNeedle, c2).WithValue(2, 3)
			for _, want := range wants {
				checkBitmapPath(t, s, q, want)
			}
		}
		for i := range entries {
			if s.prefix[i].entry.Load() != entries[i] {
				t.Fatal("a query over an absent value replaced a memo entry")
			}
		}
	})
}

// TestPrefixMemoEmptyPrefix memoizes a parent node whose values all occur
// but never together: every child's answer is empty, and the memo walk
// must return nothing rather than fall back or fault.
func TestPrefixMemoEmptyPrefix(t *testing.T) {
	sch := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "A", Kind: dataspace.Categorical, DomainSize: 16},
		{Name: "B", Kind: dataspace.Categorical, DomainSize: 16},
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 16},
	})
	tuples := make([]dataspace.Tuple, 5000)
	for r := range tuples {
		a, b := int64(r%16+1), int64(r/16%16+1)
		if a == 1 && b == 1 {
			b = 2
		}
		tuples[r] = dataspace.Tuple{a, b, int64(r/256%16 + 1)}
	}
	s, err := New(sch, tuples)
	if err != nil {
		t.Fatal(err)
	}
	uni := dataspace.UniverseQuery(sch)
	for v := int64(1); v <= 16; v++ {
		q := uni.WithValue(0, 1).WithValue(1, 1).WithValue(2, v)
		if v == 1 && walks(s, q) {
			t.Fatalf("%s walked the memo on its parent's first miss", q)
		}
		if !walks(s, q) {
			t.Fatalf("%s does not walk the memo", q)
		}
		if m := entryFor(s, uni.WithValue(0, 1).WithValue(1, 1)); len(m.ranks) != 0 {
			t.Fatalf("memoized %d ranks for an empty prefix", len(m.ranks))
		}
		checkBitmapPath(t, s, q, 65)
		if got := s.Select(q, 64); len(got) != 0 {
			t.Fatalf("%s returned %d tuples, want none", q, len(got))
		}
	}
}

// TestPrefixMemoConcurrent runs 8 goroutines, each crawling the children
// of its own parent node on one Store, so every Select races the others'
// memo replacements. Every answer must still be naive's; run under -race
// it also checks that readers never touch an entry a writer mutates.
func TestPrefixMemoConcurrent(t *testing.T) {
	s := tierStore(t, datagen.PatternPathological, 41)
	const workers, rounds = 8, 3
	queries := make([][]dataspace.Query, workers)
	expect := make([][][]dataspace.Tuple, workers)
	for g := range queries {
		prefix := prefixOf(s, datagen.PathoNeedle, int64(g+2))
		for v := int64(1); v <= 32; v++ {
			q := prefix.WithValue(2, v)
			queries[g] = append(queries[g], q)
			expect[g] = append(expect[g], naive(s, q, 65))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := range queries {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, q := range queries[g] {
					preds := q.Preds()
					pl, _ := forcePlan(s, preds, 65, pathBitmap)
					if got := s.execSelect(pl, preds, 65); !sameTuples(got, expect[g][i]) {
						errs <- fmt.Errorf("worker %d round %d: %s returned %d tuples, naive %d", g, round, q, len(got), len(expect[g][i]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
