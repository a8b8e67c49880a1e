package index

import (
	"fmt"
	"testing"
	"testing/quick"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

func testSchema(t *testing.T) *dataspace.Schema {
	t.Helper()
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C1", Kind: dataspace.Categorical, DomainSize: 5},
		{Name: "C2", Kind: dataspace.Categorical, DomainSize: 20},
		{Name: "N1", Kind: dataspace.Numeric, Min: 0, Max: 1000},
		{Name: "N2", Kind: dataspace.Numeric, Min: -100, Max: 100},
	})
}

func testStore(t *testing.T, n int, seed uint64) *Store {
	t.Helper()
	sch := testSchema(t)
	rng := simrand.New(seed)
	tuples := make([]dataspace.Tuple, n)
	for i := range tuples {
		tuples[i] = dataspace.Tuple{
			rng.IntRange(1, 5),
			rng.IntRange(1, 20),
			rng.IntRange(0, 1000),
			rng.IntRange(-100, 100),
		}
	}
	s, err := New(sch, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomQuery builds a query with a random mix of constraining predicates.
func randomQuery(sch *dataspace.Schema, rng *simrand.RNG) dataspace.Query {
	q := dataspace.UniverseQuery(sch)
	if rng.Bool(0.5) {
		q = q.WithValue(0, rng.IntRange(1, 5))
	}
	if rng.Bool(0.5) {
		q = q.WithValue(1, rng.IntRange(1, 20))
	}
	if rng.Bool(0.7) {
		lo := rng.IntRange(0, 900)
		q = q.WithRange(2, lo, lo+rng.IntRange(0, 100))
	}
	if rng.Bool(0.7) {
		lo := rng.IntRange(-100, 50)
		q = q.WithRange(3, lo, lo+rng.IntRange(0, 50))
	}
	return q
}

// naive computes the reference answer: qualifying tuples in rank order,
// truncated to want.
func naive(s *Store, q dataspace.Query, want int) []dataspace.Tuple {
	var out []dataspace.Tuple
	for _, t := range s.All() {
		if q.Covers(t) {
			out = append(out, t)
			if len(out) == want {
				break
			}
		}
	}
	return out
}

// TestSelectMatchesNaive is the core property: whatever access path the
// planner picks, the result must equal the priority-ordered scan.
func TestSelectMatchesNaive(t *testing.T) {
	s := testStore(t, 5000, 1)
	rng := simrand.New(2)
	for trial := 0; trial < 500; trial++ {
		q := randomQuery(s.Schema(), rng)
		for _, limit := range []int{0, 1, 10, 100} {
			got := s.Select(q, limit)
			want := naive(s, q, limit+1)
			if len(got) != len(want) {
				t.Fatalf("trial %d limit %d: got %d tuples, want %d (query %s)",
					trial, limit, len(got), len(want), q)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d limit %d: tuple %d differs: %v vs %v",
						trial, limit, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelectOverflowSignal(t *testing.T) {
	s := testStore(t, 1000, 3)
	sch := s.Schema()
	u := dataspace.UniverseQuery(sch)
	got := s.Select(u, 10)
	if len(got) != 11 {
		t.Fatalf("universe with limit 10 returned %d tuples, want 11 (overflow marker)", len(got))
	}
	// A point query over generated data is almost surely <= limit.
	got = s.Select(u, 2000)
	if len(got) != 1000 {
		t.Fatalf("universe with big limit returned %d, want all 1000", len(got))
	}
}

func TestSelectRankOrder(t *testing.T) {
	s := testStore(t, 2000, 5)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(0, 3)
	got := s.Select(q, 50)
	// Results must appear in the global priority order: each returned
	// tuple's rank must be increasing.
	rank := map[*int64]int{}
	_ = rank
	last := -1
	for _, tu := range got {
		// Find the tuple's rank by scanning byRank (test-only cost).
		r := -1
		for i, bt := range s.All() {
			if &bt[0] == &tu[0] {
				r = i
				break
			}
		}
		if r < 0 {
			t.Fatal("returned tuple not found in store")
		}
		if r <= last {
			t.Fatalf("results out of priority order: rank %d after %d", r, last)
		}
		last = r
	}
}

func TestCount(t *testing.T) {
	s := testStore(t, 3000, 7)
	rng := simrand.New(8)
	for trial := 0; trial < 100; trial++ {
		q := randomQuery(s.Schema(), rng)
		want := len(naive(s, q, 1<<30))
		if got := s.Count(q); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
	}
}

func TestNewValidates(t *testing.T) {
	sch := testSchema(t)
	if _, err := New(nil, nil); err == nil {
		t.Error("nil schema accepted")
	}
	bad := []dataspace.Tuple{{9, 1, 0, 0}} // C1 outside [1,5]
	if _, err := New(sch, bad); err == nil {
		t.Error("invalid tuple accepted")
	}
}

func TestEmptyStore(t *testing.T) {
	s, err := New(testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Fatal("empty store has nonzero size")
	}
	got := s.Select(dataspace.UniverseQuery(s.Schema()), 10)
	if len(got) != 0 {
		t.Fatal("empty store returned tuples")
	}
}

// randomSchema draws a schema with a random categorical prefix and numeric
// suffix (1..6 attributes total, domain sizes 1..12).
func randomSchema(rng *simrand.RNG) *dataspace.Schema {
	nc := int(rng.IntRange(0, 3))
	nn := int(rng.IntRange(0, 3))
	if nc+nn == 0 {
		nc = 1
	}
	var attrs []dataspace.Attribute
	for i := 0; i < nc; i++ {
		attrs = append(attrs, dataspace.Attribute{
			Name: fmt.Sprintf("C%d", i), Kind: dataspace.Categorical,
			DomainSize: int(rng.IntRange(1, 12)),
		})
	}
	for i := 0; i < nn; i++ {
		attrs = append(attrs, dataspace.Attribute{
			Name: fmt.Sprintf("N%d", i), Kind: dataspace.Numeric, Min: -30, Max: 30,
		})
	}
	return dataspace.MustSchema(attrs)
}

// randomBag fills a bag for the schema; the tight value ranges force heavy
// duplication, exercising posting lists with long runs and ties in the
// sorted numeric columns.
func randomBag(sch *dataspace.Schema, n int, rng *simrand.RNG) []dataspace.Tuple {
	tuples := make([]dataspace.Tuple, n)
	for i := range tuples {
		tu := make(dataspace.Tuple, sch.Dims())
		for a := 0; a < sch.Dims(); a++ {
			attr := sch.Attr(a)
			if attr.Kind == dataspace.Categorical {
				tu[a] = rng.IntRange(1, int64(attr.DomainSize))
			} else {
				tu[a] = rng.IntRange(-30, 30)
			}
		}
		tuples[i] = tu
	}
	return tuples
}

// randomQueryOver draws a query with a random mix of wildcards, equalities
// (sometimes on values absent from the data), and numeric ranges (from
// unbounded through empty single-point windows).
func randomQueryOver(sch *dataspace.Schema, rng *simrand.RNG) dataspace.Query {
	q := dataspace.UniverseQuery(sch)
	for a := 0; a < sch.Dims(); a++ {
		attr := sch.Attr(a)
		if attr.Kind == dataspace.Categorical {
			if rng.Bool(0.6) {
				q = q.WithValue(a, rng.IntRange(1, int64(attr.DomainSize)))
			}
		} else if rng.Bool(0.7) {
			lo := rng.IntRange(-35, 30)
			width := rng.IntRange(0, 25)
			if rng.Bool(0.1) {
				width = -rng.IntRange(1, 10) // inverted (empty) range
			}
			q = q.WithRange(a, lo, lo+width)
		}
	}
	return q
}

// TestPropertyRandomEngineMatchesNaiveScan pins planner correctness across
// every access path: for randomized schemas, bags and queries, Select must
// return exactly the tuples — in exactly the order — of a naive
// priority-order scan, and Count must agree with the scan's total.
func TestPropertyRandomEngineMatchesNaiveScan(t *testing.T) {
	rng := simrand.New(99)
	for trial := 0; trial < 40; trial++ {
		sch := randomSchema(rng)
		n := int(rng.IntRange(0, 600))
		s, err := New(sch, randomBag(sch, n, rng))
		if err != nil {
			t.Fatal(err)
		}
		for qt := 0; qt < 60; qt++ {
			q := randomQueryOver(sch, rng)
			limit := int(rng.IntRange(0, 40))
			got := s.Select(q, limit)
			want := naive(s, q, limit+1)
			if len(got) != len(want) {
				t.Fatalf("trial %d: schema %s n=%d query %s limit %d: got %d tuples, want %d",
					trial, sch, n, q, limit, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d: schema %s query %s limit %d: tuple %d differs: %v vs %v",
						trial, sch, q, limit, i, got[i], want[i])
				}
			}
			if gotC, wantC := s.Count(q), len(naive(s, q, 1<<30)); gotC != wantC {
				t.Fatalf("trial %d: schema %s query %s: Count = %d, want %d",
					trial, sch, q, gotC, wantC)
			}
		}
	}
}

// TestInvertedRange pins the empty-segment clamp: a query whose numeric
// range has Lo > Hi (constructible via WithRange, which never validates,
// and reachable because Local.Answer skips Validate for same-schema
// queries) must select nothing and count zero rather than panicking on a
// negative candidate count.
func TestInvertedRange(t *testing.T) {
	s := testStore(t, 500, 21)
	u := dataspace.UniverseQuery(s.Schema())
	queries := []dataspace.Query{
		u.WithRange(2, 50, 10),                    // inverted, only bound predicate
		u.WithRange(2, 50, 10).WithValue(0, 3),    // inverted secondary beside a posting list
		u.WithRange(2, 50, 10).WithRange(3, 0, 5), // inverted primary beside a live range
	}
	for i, q := range queries {
		if got := s.Select(q, 10); len(got) != 0 {
			t.Errorf("query %d: Select returned %d tuples for an empty range", i, len(got))
		}
		if got := s.Count(q); got != 0 {
			t.Errorf("query %d: Count = %d, want 0", i, got)
		}
	}
}

// TestGallop pins the exponential-search helper across window shapes.
func TestGallop(t *testing.T) {
	b := []int32{2, 3, 5, 8, 13, 21, 34, 55, 89}
	for lo := 0; lo <= len(b); lo++ {
		for target := int32(0); target < 100; target++ {
			got := gallop(b, lo, target)
			want := lo
			for want < len(b) && b[want] < target {
				want++
			}
			if got != want {
				t.Fatalf("gallop(lo=%d, target=%d) = %d, want %d", lo, target, got, want)
			}
		}
	}
}

// TestGallopPathsMatchColumnProbe lowers the cache-size gate so the
// planner actually routes posting ∩ posting queries through the galloping
// merge on a test-sized store, then checks Select and Count end-to-end
// against the naive scan. This is the only coverage of the gallop branches
// inside Select and Count at production thresholds (they need n ≥ 4M).
func TestGallopPathsMatchColumnProbe(t *testing.T) {
	defer func(old int) { colCacheTuples = old }(colCacheTuples)
	colCacheTuples = 0
	s := testStore(t, 4000, 23)
	rng := simrand.New(24)
	for trial := 0; trial < 200; trial++ {
		q := dataspace.UniverseQuery(s.Schema()).
			WithValue(0, rng.IntRange(1, 5)).
			WithValue(1, rng.IntRange(1, 20))
		for _, limit := range []int{0, 5, 100} {
			got := s.Select(q, limit)
			want := naive(s, q, limit+1)
			if len(got) != len(want) {
				t.Fatalf("trial %d limit %d: gallop Select %d tuples, naive %d", trial, limit, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d limit %d: tuple %d differs", trial, limit, i)
				}
			}
		}
		if gotC, wantC := s.Count(q), len(naive(s, q, 1<<30)); gotC != wantC {
			t.Fatalf("trial %d: gallop Count = %d, want %d", trial, gotC, wantC)
		}
	}
}

// TestSelectGallopMatchesColumnProbe forces the galloping-merge
// intersection (normally reserved for stores too large for cache-resident
// columns) and checks it agrees with the default column-probe path.
func TestSelectGallopMatchesColumnProbe(t *testing.T) {
	s := testStore(t, 4000, 17)
	rng := simrand.New(18)
	for trial := 0; trial < 200; trial++ {
		q := dataspace.UniverseQuery(s.Schema()).
			WithValue(0, rng.IntRange(1, 5)).
			WithValue(1, rng.IntRange(1, 20))
		preds := q.Preds()
		for _, limit := range []int{0, 3, 50} {
			want := limit + 1
			galPlan, ok := forcePlan(s, preds, want, pathGallop)
			if !ok {
				t.Fatalf("trial %d: expected a posting ∩ posting plan, got %+v", trial, galPlan)
			}
			colPlan, _ := forcePlan(s, preds, want, pathPosting)
			gal := s.execSelect(galPlan, preds, want)
			col := s.execSelect(colPlan, preds, want)
			if len(gal) != len(col) {
				t.Fatalf("trial %d limit %d: gallop %d tuples, column probe %d", trial, limit, len(gal), len(col))
			}
			for i := range gal {
				if !gal[i].Equal(col[i]) {
					t.Fatalf("trial %d limit %d: tuple %d differs", trial, limit, i)
				}
			}
		}
	}
}

// Property: for random limits, Select never returns more than limit+1
// tuples and never misses a qualifying higher-priority tuple.
func TestSelectLimitProperty(t *testing.T) {
	s := testStore(t, 800, 11)
	rng := simrand.New(12)
	f := func(limRaw uint8) bool {
		limit := int(limRaw % 64)
		q := randomQuery(s.Schema(), rng)
		got := s.Select(q, limit)
		if len(got) > limit+1 {
			return false
		}
		want := naive(s, q, limit+1)
		return len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
