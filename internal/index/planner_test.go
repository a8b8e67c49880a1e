package index

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// tierStore builds a Store over one scale-tier dataset. The 10k tier is
// above bitmapMinTuples, so every low-cardinality categorical attribute
// carries a bitmap index.
func tierStore(t *testing.T, p datagen.Pattern, seed uint64) *Store {
	t.Helper()
	d := datagen.Tiered(p, datagen.Tier10K, seed)
	s, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tierQuery draws a random query over the tier schema, spanning arities 0–6
// and occasionally aiming at the pathological needle conjunction.
func tierQuery(sch *dataspace.Schema, rng *simrand.RNG, n int) dataspace.Query {
	q := dataspace.UniverseQuery(sch)
	needle := rng.Bool(0.25)
	for i := 0; i < 3; i++ {
		if needle {
			q = q.WithValue(i, datagen.PathoNeedle)
		} else if rng.Bool(0.5) {
			q = q.WithValue(i, rng.IntRange(1, 32))
		}
	}
	if rng.Bool(0.3) {
		q = q.WithValue(3, rng.IntRange(1, 1024))
	}
	if rng.Bool(0.4) {
		lo := rng.IntRange(0, int64(n-1))
		q = q.WithRange(4, lo, lo+rng.IntRange(0, int64(n/4)))
	}
	if rng.Bool(0.3) {
		lo := rng.IntRange(0, 1<<20)
		q = q.WithRange(5, lo, lo+rng.IntRange(0, 1<<18))
	}
	return q
}

func sameTuples(a, b []dataspace.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// forcePlan plans the query, then overrides the chosen access path with
// path — how the tests reach every path on one query regardless of cost.
// ok=false when the query cannot run that path: posting needs a categorical
// primary, gallop a categorical primary and secondary, range a numeric
// primary, and bitmap two bitmap-indexed equalities.
func forcePlan(s *Store, preds []dataspace.Pred, want int, path pathKind) (pl plan, ok bool) {
	pl = s.planQuery(preds, want)
	cat := func(a int) bool { return a >= 0 && s.isCat[a] }
	switch path {
	case pathScan:
		ok = true
	case pathPosting:
		ok = cat(pl.primary)
	case pathGallop:
		ok = cat(pl.primary) && cat(pl.secondary)
	case pathRange:
		ok = pl.primary >= 0 && !s.isCat[pl.primary]
	case pathBitmap:
		ok = bits.OnesCount64(pl.bitmapSkip) >= 2
	}
	pl.path = path
	return pl, ok
}

// TestAccessPathsAgreeAcrossPatterns is the planner oracle: on every
// generator pattern, for random queries of every arity, each access path —
// forced through the planner's plan, whatever its cost — must return
// exactly the naive reference answer: same tuples, same order.
func TestAccessPathsAgreeAcrossPatterns(t *testing.T) {
	for _, p := range datagen.Patterns {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := tierStore(t, p, 11)
			n := s.Size()
			rng := simrand.New(uint64(p) + 101)
			var forced [numPaths]int
			for trial := 0; trial < 150; trial++ {
				q := tierQuery(s.Schema(), rng, n)
				preds := q.Preds()
				for _, limit := range []int{0, 9, 64} {
					want := limit + 1
					expect := naive(s, q, want)
					if got := s.Select(q, limit); !sameTuples(got, expect) {
						t.Fatalf("trial %d limit %d: Select diverges from naive on %s", trial, limit, q)
					}
					for path := pathKind(0); path < numPaths; path++ {
						pl, ok := forcePlan(s, preds, want, path)
						if !ok {
							continue
						}
						forced[path]++
						if got := s.execSelect(pl, preds, want); !sameTuples(got, expect) {
							t.Fatalf("trial %d limit %d: %s path diverges from naive on %s",
								trial, limit, pathNames[path], q)
						}
					}
				}
			}
			for path, c := range forced {
				if c == 0 {
					t.Fatalf("no trial exercised the %s path; query generator is broken", pathNames[path])
				}
			}
		})
	}
}

// TestAccessPathsAgreeUnderGallop re-runs the oracle with the column-cache
// threshold lowered so the v2 executor routes posting ∩ posting through the
// galloping merge, which test-sized stores never trigger by default.
func TestAccessPathsAgreeUnderGallop(t *testing.T) {
	defer func(v int) { colCacheTuples = v }(colCacheTuples)
	colCacheTuples = 0
	s := tierStore(t, datagen.PatternRandom, 13)
	rng := simrand.New(14)
	for trial := 0; trial < 150; trial++ {
		q := tierQuery(s.Schema(), rng, s.Size())
		got := s.Select(q, 64)
		if !sameTuples(got, naive(s, q, 65)) {
			t.Fatalf("trial %d: Select diverges from naive with gallop forced on %s", trial, q)
		}
	}
	if s.PlanStats().Paths["gallop"] == 0 {
		t.Log("no query routed through gallop; acceptable but unexpected")
	}
}

// TestCountMatchesNaiveAcrossPatterns checks Count — including the bitmap
// popcount fast path — against a full scan on every pattern.
func TestCountMatchesNaiveAcrossPatterns(t *testing.T) {
	for _, p := range datagen.Patterns {
		s := tierStore(t, p, 17)
		rng := simrand.New(uint64(p) + 23)
		for trial := 0; trial < 100; trial++ {
			q := tierQuery(s.Schema(), rng, s.Size())
			want := 0
			for _, tu := range s.All() {
				if q.Covers(tu) {
					want++
				}
			}
			if got := s.Count(q); got != want {
				t.Fatalf("%v trial %d: Count = %d, want %d on %s", p, trial, got, want, q)
			}
		}
	}
}

// pathTotal sums a PlanStats' per-path execution counts.
func pathTotal(ps PlanStats) int64 {
	var total int64
	for _, v := range ps.Paths {
		total += v
	}
	return total
}

// TestPlanStatsCounters pins the planner's observable arithmetic: one path
// execution per Select, none per Count, and the retired cache counters
// reading zero.
func TestPlanStatsCounters(t *testing.T) {
	s := tierStore(t, datagen.PatternRandom, 19)
	rng := simrand.New(20)
	sch := s.Schema()
	const repeats = 50
	for i := 0; i < repeats; i++ {
		q := dataspace.UniverseQuery(sch).WithValue(0, rng.IntRange(1, 32))
		s.Select(q, 64)
		s.Count(q)
	}
	s.Select(dataspace.UniverseQuery(sch).WithValue(0, 1).WithValue(1, 2), 64)
	ps := s.PlanStats()
	if got := pathTotal(ps); got != repeats+1 {
		t.Fatalf("path counts sum to %d, want %d: %v", got, repeats+1, ps.Paths)
	}
	if ps.Hits != 0 || ps.Misses != 0 || ps.HitRate() != 0 {
		t.Fatalf("retired cache counters read hits=%d misses=%d rate=%v, want 0",
			ps.Hits, ps.Misses, ps.HitRate())
	}
}

// TestNarrowQueryAfterBroadSameShape is the regression test for per-shape
// plan caching: a broad range picks the early-exit scan, and a narrow
// range of the same shape that follows must be planned from its own
// values — onto the range path, not the broad query's scan.
func TestNarrowQueryAfterBroadSameShape(t *testing.T) {
	s := tierStore(t, datagen.PatternRandom, 23)
	n := int64(s.Size())
	uni := dataspace.UniverseQuery(s.Schema())
	broad, narrow := uni.WithRange(4, 0, n/2), uni.WithRange(4, 0, 20)
	for _, tc := range []struct {
		q    dataspace.Query
		path string
	}{{broad, "scan"}, {narrow, "range"}} {
		before := s.PlanStats().Paths[tc.path]
		if got := s.Select(tc.q, 64); !sameTuples(got, naive(s, tc.q, 65)) {
			t.Fatalf("Select diverges from naive on %s", tc.q)
		}
		if s.PlanStats().Paths[tc.path] != before+1 {
			t.Fatalf("%s executed paths %v, want %s", tc.q, s.PlanStats().Paths, tc.path)
		}
	}
}

// TestPlannerConcurrent hammers one store from many goroutines with a mixed
// workload. Run under -race it proves planning shares no mutable state
// beyond the atomic path counters; the result check keeps it honest.
func TestPlannerConcurrent(t *testing.T) {
	s := tierStore(t, datagen.PatternRealistic, 31)
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := simrand.New(uint64(w) + 41)
			for i := 0; i < perWorker; i++ {
				q := tierQuery(s.Schema(), rng, s.Size())
				if !sameTuples(s.Select(q, 64), naive(s, q, 65)) {
					errs <- fmt.Errorf("worker %d: Select diverges from naive on %s", w, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := pathTotal(s.PlanStats()); got != workers*perWorker {
		t.Fatalf("path counts sum to %d, want %d", got, workers*perWorker)
	}
}

// TestWideSchemaUncached verifies a store wider than the bitmap path's
// attribute mask still plans and answers every query correctly.
func TestWideSchemaUncached(t *testing.T) {
	attrs := make([]dataspace.Attribute, 33)
	for i := range attrs {
		attrs[i] = dataspace.Attribute{
			Name: fmt.Sprintf("C%d", i+1), Kind: dataspace.Categorical, DomainSize: 4,
		}
	}
	sch := dataspace.MustSchema(attrs)
	rng := simrand.New(43)
	tuples := make([]dataspace.Tuple, 500)
	for i := range tuples {
		tu := make(dataspace.Tuple, 33)
		for j := range tu {
			tu[j] = rng.IntRange(1, 4)
		}
		tuples[i] = tu
	}
	s, err := New(sch, tuples)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := dataspace.UniverseQuery(sch)
		for j := 0; j < 33; j++ {
			if rng.Bool(0.2) {
				q = q.WithValue(j, rng.IntRange(1, 4))
			}
		}
		if !sameTuples(s.Select(q, 10), naive(s, q, 11)) {
			t.Fatalf("trial %d: wide-schema Select diverges from naive", trial)
		}
	}
	if got := pathTotal(s.PlanStats()); got != 30 {
		t.Fatalf("wide schema: path counts sum to %d, want 30", got)
	}
}

// TestShardedSharesStatsKeepsPlans pins the Sharded contract: one shared
// selectivity sample, per-shard planning, aggregated PlanStats.
func TestShardedSharesStatsKeepsPlans(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRandom, datagen.Tier10K, 47)
	sh, err := NewSharded(d.Schema, d.Tuples, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sh.shards); i++ {
		if sh.shards[i].stats != sh.shards[0].stats {
			t.Fatal("shards should share one SelStats instance")
		}
	}
	if got := sh.shards[0].stats.SampleSize(); got != statsSampleMax {
		t.Fatalf("shared sample size = %d, want %d", got, statsSampleMax)
	}
	rng := simrand.New(48)
	for i := 0; i < 40; i++ {
		q := tierQuery(d.Schema, rng, len(d.Tuples))
		got := sh.Select(q, 64)
		single, err := New(d.Schema, d.Tuples)
		_ = err
		if !sameTuples(got, naive(single, q, 65)) {
			t.Fatalf("sharded Select diverges from naive on %s", q)
		}
	}
	if pathTotal(sh.PlanStats()) < 40 {
		t.Fatal("sharded PlanStats should aggregate shard counters")
	}
}

// TestSelStats sanity-checks the sampled statistics themselves.
func TestSelStats(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRandom, datagen.Tier10K, 53)
	s, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SampleSize() != statsSampleMax {
		t.Fatalf("sample size = %d, want %d", st.SampleSize(), statsSampleMax)
	}
	sch := d.Schema
	uni := dataspace.UniverseQuery(sch)
	if sel := st.jointSel(uni.Preds()); sel != 1 {
		t.Fatalf("universe selectivity = %v, want 1", sel)
	}
	// A value outside the generated domain: floored, never zero.
	impossible := uni.WithValue(0, 31337)
	if sel := st.jointSel(impossible.Preds()); sel <= 0 || sel > 1.0/float64(statsSampleMax) {
		t.Fatalf("impossible-predicate selectivity = %v, want the 0.5/S floor", sel)
	}
	// The column-wise evaluation counts exactly the sampled rows a
	// row-by-row Covers check accepts.
	rows := st.SampleRows()
	rng := simrand.New(54)
	for trial := 0; trial < 200; trial++ {
		q := tierQuery(sch, rng, len(d.Tuples))
		matched := 0
		for _, r := range rows {
			if q.Covers(r) {
				matched++
			}
		}
		want := max(float64(matched), 0.5) / float64(len(rows))
		if got := st.jointSel(q.Preds()); got != want {
			t.Fatalf("trial %d: jointSel = %v, want %v on %s", trial, got, want, q)
		}
	}
	// Uniform 32-way categorical: second moment near 1/32.
	if es := st.EqSel(0); es < 0.01 || es > 0.1 {
		t.Fatalf("EqSel(C1) = %v, want ≈ 1/32", es)
	}
	if es := st.EqSel(4); es != 0 {
		t.Fatalf("EqSel(numeric) = %v, want 0", es)
	}
	// Empty store: selectivity defaults to 1, nothing divides by zero.
	empty, err := New(d.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel := empty.Stats().jointSel(uni.Preds()); sel != 1 {
		t.Fatalf("empty-store selectivity = %v, want 1", sel)
	}
	if got := empty.Select(uni, 5); len(got) != 0 {
		t.Fatalf("empty-store Select returned %d tuples", len(got))
	}
}

// TestSelectAllocsSteadyState pins the one-allocation Select contract on
// every access path: planning allocates nothing, so once the scratch pools
// are warm (AllocsPerRun's warm-up call) a Select allocates exactly its
// result slice — including a narrow query right after a broad one of the
// same shape.
func TestSelectAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	s := tierStore(t, datagen.PatternPathological, 67)
	sch := s.Schema()
	uni := dataspace.UniverseQuery(sch)
	needle := uni.
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
	cases := []struct {
		name string
		qs   []dataspace.Query
	}{
		{"scan", []dataspace.Query{uni}},
		{"posting", []dataspace.Query{uni.WithValue(3, 7)}},
		{"range", []dataspace.Query{uni.WithRange(4, 100, 3000).WithValue(0, 2)}},
		{"bitmap", []dataspace.Query{needle}},
		{"broad then narrow", []dataspace.Query{uni.WithRange(4, 0, 5000), uni.WithRange(4, 0, 20)}},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			for _, q := range tc.qs {
				s.Select(q, 64)
			}
		})
		if allocs > float64(len(tc.qs)) {
			t.Errorf("%s: %.1f allocs per %d Selects, want <= 1 each", tc.name, allocs, len(tc.qs))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Count(needle) }); allocs > 0 {
		t.Errorf("Count: %.1f allocs, want 0", allocs)
	}
}

// TestPlannerPicksBitmapForNeedle pins the cost model's headline decision:
// the pathological 3-way intersection must route to the bitmap path (and a
// broad single equality must not).
func TestPlannerPicksBitmapForNeedle(t *testing.T) {
	s := tierStore(t, datagen.PatternPathological, 71)
	sch := s.Schema()
	needle := dataspace.UniverseQuery(sch).
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
	s.Select(needle, 64)
	if ps := s.PlanStats(); ps.Paths["bitmap"] != 1 {
		t.Fatalf("needle conjunction executed paths %v, want the bitmap path", ps.Paths)
	}
	broad := dataspace.UniverseQuery(sch).WithValue(0, datagen.PathoNeedle)
	s.Select(broad, 64)
	if ps := s.PlanStats(); ps.Paths["bitmap"] != 1 {
		t.Fatalf("broad single equality should not use the bitmap path: %v", ps.Paths)
	}
}

// TestBitmapGatesRespected checks the build-time gating: small stores and
// wide-domain attributes must not pay for bitmap indexes.
func TestBitmapGatesRespected(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRandom, datagen.Tier10K, 59)
	s, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if s.bitmaps[i] == nil {
			t.Fatalf("C%d (domain 32) should carry a bitmap index at 10k tuples", i+1)
		}
	}
	if s.bitmaps[3] != nil {
		t.Fatal("C4 (domain 1024) must not carry a bitmap index")
	}
	if s.bitmaps[4] != nil || s.bitmaps[5] != nil {
		t.Fatal("numeric attributes must not carry bitmap indexes")
	}
	small, err := New(d.Schema, d.Tuples[:1000])
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.bitmaps {
		if small.bitmaps[i] != nil {
			t.Fatalf("a 1000-tuple store should build no bitmap indexes (attr %d)", i)
		}
	}
}
