package index

import (
	"fmt"
	"math/bits"
	"slices"
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
// primary, range a numeric primary, and bitmap two bitmap-indexed
// equalities.
func forcePlan(s *Store, preds []dataspace.Pred, want int, path pathKind) (pl plan, ok bool) {
	pl = s.planQuery(preds, want)
	switch path {
	case pathScan:
		ok = true
	case pathPosting:
		ok = pl.primary >= 0 && s.isCat[pl.primary]
	case pathRange:
		ok = pl.primary >= 0 && !s.isCat[pl.primary]
	case pathBitmap:
		ok = bits.OnesCount64(pl.bitmapSkip) >= 2
	}
	pl.path = path
	return pl, ok
}

// checkForcedPaths forces every access path forcePlan allows on q, fails
// unless each returns exactly naive's first want tuples, and counts the
// paths it ran in forced.
func checkForcedPaths(t *testing.T, s *Store, q dataspace.Query, want int, forced *[numPaths]int) {
	t.Helper()
	preds := q.Preds()
	expect := naive(s, q, want)
	for path := pathKind(0); path < numPaths; path++ {
		pl, ok := forcePlan(s, preds, want, path)
		if !ok {
			continue
		}
		forced[path]++
		if got := s.execSelect(pl, preds, want); !sameTuples(got, expect) {
			t.Fatalf("%s path returned %d tuples, naive %d, on %s (want %d)",
				pathNames[path], len(got), len(expect), q, want)
		}
	}
}

// TestAccessPathsAgreeAcrossPatterns is the planner oracle: on every
// generator pattern, for random queries of every arity, each access path —
// forced through the planner's plan, whatever its cost — must return
// exactly the naive reference answer: same tuples, same order. Limit n
// enumerates every match, so the bitmap path also runs untruncated.
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
				for _, limit := range []int{0, 9, 64, n} {
					if got := s.Select(q, limit); !sameTuples(got, naive(s, q, limit+1)) {
						t.Fatalf("trial %d limit %d: Select diverges from naive on %s", trial, limit, q)
					}
					checkForcedPaths(t, s, q, limit+1, &forced)
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

// fuzzStores memoizes FuzzSelectPaths' 10k tier store per pattern.
var fuzzStores struct {
	sync.Mutex
	m map[datagen.Pattern]*Store
}

func fuzzStore(t *testing.T, p datagen.Pattern) *Store {
	fuzzStores.Lock()
	defer fuzzStores.Unlock()
	if fuzzStores.m[p] == nil {
		if fuzzStores.m == nil {
			fuzzStores.m = make(map[datagen.Pattern]*Store)
		}
		fuzzStores.m[p] = tierStore(t, p, 29)
	}
	return fuzzStores.m[p]
}

// FuzzSelectPaths is the differential oracle over every access path. The
// input builds a query over a 10k tier store: bit i of bound binds
// attribute i, to value c_i mod (domain+1) for C1..C4 (0 occurs nowhere)
// and to [lo, lo+width-1] inside the domain for N1 and N2 (width 0 is an
// inverted range). Every path forcePlan can force must match naive at the
// fuzzed want and at want n+1, which enumerates every match. A query with
// a bitmap-indexed equality is then followed by its sibling, the same
// query with the next value on its highest bitmap attribute, as the
// extended DFS issues it: when the first query memoized its parent node
// (prefix.go), the sibling's bitmap path walks it. The seeds give an empty
// residual set (a slice on the posting attribute C4), a residual of
// numeric ranges only (posting and range primaries), one of wildcards
// only, the bitmap needle with a residual range, the universe query, an
// inverted range, and a child of a needle ∧ non-needle parent with a
// residual range, whose sibling walks the memo.
func FuzzSelectPaths(f *testing.F) {
	pat := uint8(datagen.PatternPathological)
	f.Add(pat, uint8(1<<3), uint16(0), uint16(0), uint16(0), uint16(7), uint32(0), uint32(0), uint32(0), uint32(0), uint16(64))
	f.Add(pat, uint8(1<<3|1<<4|1<<5), uint16(0), uint16(0), uint16(0), uint16(7), uint32(100), uint32(8000), uint32(0), uint32(1<<19), uint16(999))
	f.Add(pat, uint8(1<<0|1<<3), uint16(2), uint16(0), uint16(0), uint16(9), uint32(0), uint32(0), uint32(0), uint32(0), uint16(9))
	f.Add(pat, uint8(1<<0|1<<4), uint16(2), uint16(0), uint16(0), uint16(0), uint32(9000), uint32(900), uint32(0), uint32(0), uint16(64))
	f.Add(pat, uint8(1<<0|1<<4|1<<5), uint16(2), uint16(0), uint16(0), uint16(0), uint32(100), uint32(151), uint32(0), uint32(1<<19), uint16(999))
	f.Add(pat, uint8(1<<0|1<<1|1<<2|1<<4), uint16(1), uint16(1), uint16(1), uint16(0), uint32(9900), uint32(100), uint32(0), uint32(0), uint16(0))
	f.Add(uint8(datagen.PatternRandom), uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0), uint32(0), uint32(0), uint32(0), uint16(256))
	f.Add(uint8(datagen.PatternRealistic), uint8(1<<1|1<<5), uint16(3), uint16(3), uint16(0), uint16(0), uint32(0), uint32(0), uint32(5000), uint32(0), uint16(5))
	f.Add(pat, uint8(1<<0|1<<1|1<<2|1<<5), uint16(1), uint16(2), uint16(3), uint16(0), uint32(0), uint32(0), uint32(1000), uint32(1<<19), uint16(4))
	f.Fuzz(func(t *testing.T, pattern, bound uint8, c1, c2, c3, c4 uint16, lo1, w1, lo2, w2 uint32, limit uint16) {
		s := fuzzStore(t, datagen.Patterns[int(pattern)%len(datagen.Patterns)])
		sch := s.Schema()
		q := dataspace.UniverseQuery(sch)
		for i, c := range [4]uint16{c1, c2, c3, c4} {
			if bound>>i&1 != 0 {
				q = q.WithValue(i, int64(c)%int64(sch.Attr(i).DomainSize+1))
			}
		}
		for i, r := range [2][2]uint32{{lo1, w1}, {lo2, w2}} {
			if a := 4 + i; bound>>a&1 != 0 {
				from, to := sch.Attr(a).Bounds()
				span := uint32(to - from + 1)
				lo := from + int64(r[0]%span)
				q = q.WithRange(a, lo, lo+int64(r[1]%(span+1))-1)
			}
		}
		var forced [numPaths]int
		checkForcedPaths(t, s, q, int(limit%1024)+1, &forced)
		checkForcedPaths(t, s, q, s.Size()+1, &forced)
		if set := s.planQuery(q.Preds(), 1).bitmapSkip; set != 0 {
			h := bits.Len64(set) - 1
			sib := q.WithValue(h, q.Preds()[h].Value%int64(sch.Attr(h).DomainSize)+1)
			checkForcedPaths(t, s, sib, int(limit%1024)+1, &forced)
			checkForcedPaths(t, s, sib, s.Size()+1, &forced)
		}
	})
}

// TestCountMatchesNaiveAcrossPatterns checks the full match count — what
// Select at limit n returns, on the planned path and on every forced one,
// the bitmap path untruncated among them — against a full scan's count on
// every pattern.
func TestCountMatchesNaiveAcrossPatterns(t *testing.T) {
	for _, p := range datagen.Patterns {
		s := tierStore(t, p, 17)
		n := s.Size()
		rng := simrand.New(uint64(p) + 23)
		var forced [numPaths]int
		for trial := 0; trial < 100; trial++ {
			q := tierQuery(s.Schema(), rng, n)
			want := 0
			for _, tu := range all(s) {
				if q.Covers(tu) {
					want++
				}
			}
			if got := len(s.Select(q, n)); got != want {
				t.Fatalf("%v trial %d: Select at limit n returned %d tuples, want %d on %s", p, trial, got, want, q)
			}
			preds := q.Preds()
			for path := pathKind(0); path < numPaths; path++ {
				pl, ok := forcePlan(s, preds, n+1, path)
				if !ok {
					continue
				}
				forced[path]++
				if got := len(s.execSelect(pl, preds, n+1)); got != want {
					t.Fatalf("%v trial %d: %s path returned %d tuples, want %d on %s",
						p, trial, pathNames[path], got, want, q)
				}
			}
		}
		if forced[pathBitmap] == 0 {
			t.Fatalf("%v: no trial exercised the bitmap path", p)
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
// execution per Select, and the retired cache counters reading zero.
func TestPlanStatsCounters(t *testing.T) {
	s := tierStore(t, datagen.PatternRandom, 19)
	rng := simrand.New(20)
	sch := s.Schema()
	const repeats = 50
	for i := 0; i < repeats; i++ {
		q := dataspace.UniverseQuery(sch).WithValue(0, rng.IntRange(1, 32))
		s.Select(q, 64)
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
// attribute mask still plans and answers every query correctly, and that a
// 70-attribute mixed schema — wider than the residual check's 64-bit skip
// mask — still checks attributes 64 and up (two categorical, four numeric)
// on every forced access path, at small wants and at want n+1.
func TestWideSchemaUncached(t *testing.T) {
	rng := simrand.New(43)
	sch, s := wideStore(t, rng, 33, 33)
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

	const d = 70
	sch, s = wideStore(t, rng, d, 66)
	var forced [numPaths]int
	for trial := 0; trial < 200; trial++ {
		q := dataspace.UniverseQuery(sch)
		for j := 0; j < d; j++ {
			// Bind the attributes from 64 up far more often, so they are
			// residual beside a low primary as well as primary themselves.
			p := 0.03
			if j >= 64 {
				p = 0.4
			}
			if !rng.Bool(p) {
				continue
			}
			if sch.Attr(j).Kind == dataspace.Categorical {
				q = q.WithValue(j, rng.IntRange(1, 4))
			} else {
				lo := rng.IntRange(0, 90)
				q = q.WithRange(j, lo, lo+rng.IntRange(0, 40))
			}
		}
		for _, want := range []int{1, 11, s.Size() + 1} {
			checkForcedPaths(t, s, q, want, &forced)
		}
	}
	for _, path := range []pathKind{pathScan, pathPosting, pathRange} {
		if forced[path] == 0 {
			t.Fatalf("no %d-attribute trial exercised the %s path", d, pathNames[path])
		}
	}
}

// wideStore builds a 500-tuple store over d attributes, drawn from rng:
// the first cats categorical of domain 4, the rest numeric over [0, 99].
func wideStore(t *testing.T, rng *simrand.RNG, d, cats int) (*dataspace.Schema, *Store) {
	t.Helper()
	attrs := make([]dataspace.Attribute, d)
	for i := range attrs {
		attrs[i] = dataspace.Attribute{Name: fmt.Sprintf("N%d", i+1), Kind: dataspace.Numeric, Min: 0, Max: 99}
		if i < cats {
			attrs[i] = dataspace.Attribute{Name: fmt.Sprintf("C%d", i+1), Kind: dataspace.Categorical, DomainSize: 4}
		}
	}
	sch := dataspace.MustSchema(attrs)
	tuples := make([]dataspace.Tuple, 500)
	for i := range tuples {
		tu := make(dataspace.Tuple, d)
		for j := range tu {
			if j < cats {
				tu[j] = rng.IntRange(1, 4)
			} else {
				tu[j] = rng.IntRange(0, 99)
			}
		}
		tuples[i] = tu
	}
	s, err := New(sch, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return sch, s
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
	if got := sh.shards[0].stats.sampled; got != statsSampleMax {
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
	st := s.stats
	if st.sampled != statsSampleMax {
		t.Fatalf("sample size = %d, want %d", st.sampled, statsSampleMax)
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
	rows := make([]dataspace.Tuple, st.sampled)
	for j := range rows {
		rows[j] = make(dataspace.Tuple, len(st.cols))
		for i, col := range st.cols {
			rows[j][i] = col[j]
		}
	}
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
	if es := st.eqSel[0]; es < 0.01 || es > 0.1 {
		t.Fatalf("eqSel[C1] = %v, want ≈ 1/32", es)
	}
	if es := st.eqSel[4]; es != 0 {
		t.Fatalf("eqSel[numeric] = %v, want 0", es)
	}
	// Empty store: selectivity defaults to 1, nothing divides by zero.
	empty, err := New(d.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel := empty.stats.jointSel(uni.Preds()); sel != 1 {
		t.Fatalf("empty-store selectivity = %v, want 1", sel)
	}
	if got := empty.Select(uni, 5); len(got) != 0 {
		t.Fatalf("empty-store Select returned %d tuples", len(got))
	}
}

// bitmapsOfPlan returns the bitmaps q's bitmap plan intersects.
func bitmapsOfPlan(t *testing.T, s *Store, q dataspace.Query) []*rankBitmap {
	t.Helper()
	preds := q.Preds()
	pl := s.planQuery(preds, 65)
	if pl.path != pathBitmap {
		t.Fatalf("planned %s, want bitmap", pathNames[pl.path])
	}
	var arr [bitmapMaxDims]*rankBitmap
	bms, ok := s.planBitmaps(preds, pl.bitmapSkip, &arr)
	if !ok {
		t.Fatal("bitmap plan over an absent value")
	}
	return bms
}

// TestSelectAllocsSteadyState pins the one-allocation Select contract on
// every access path: planning allocates nothing, so once the scratch pools
// are warm (AllocsPerRun's warm-up call) a Select allocates exactly its
// result slice, including a narrow query right after a broad one of the
// same shape. Both bitmap cases run the probe kernel on ~1,600-rank array
// containers: "bitmap" materializes two of its three arrays, the second
// through andWords' array branch and its second scratch half, and "bitmap
// truncated" cuts its block's ranks at want. The cases that name a path
// must run it: "posting, empty residual" is a wide-domain slice whose
// residual check skips every column. The memo cases pin a hit (the result
// only) and a memoizing miss (the result, the memo entry and its rank
// list).
func TestSelectAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	s := tierStore(t, datagen.PatternPathological, 67)
	sch := s.Schema()
	uni := dataspace.UniverseQuery(sch)
	needle2 := uni.
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle)
	needle := needle2.WithValue(2, datagen.PathoNeedle)
	for _, q := range []dataspace.Query{needle, needle2} {
		kernels := blockKernels(bitmapsOfPlan(t, s, q))
		if len(kernels) == 0 || slices.ContainsFunc(kernels, func(k int) bool { return k != kernelProbe }) {
			t.Fatalf("%v: blocks ran kernels %v, want only the probe", q, kernels)
		}
	}
	for _, bm := range bitmapsOfPlan(t, s, needle) {
		for _, c := range bm.cs {
			if c.kind != containerArray {
				t.Fatalf("needle built a kind-%d container, want three arrays per block", c.kind)
			}
		}
	}
	if got := len(s.Select(needle2, 64)); got != 65 {
		t.Fatalf("2-way needle returned %d tuples, want a truncated 65", got)
	}
	cases := []struct {
		name, path string
		qs         []dataspace.Query
	}{
		{"scan", "", []dataspace.Query{uni}},
		{"posting", "", []dataspace.Query{uni.WithValue(3, 7)}},
		{"posting, empty residual", "posting", []dataspace.Query{uni.WithValue(3, 11)}},
		{"range", "", []dataspace.Query{uni.WithRange(4, 100, 3000).WithValue(0, 2)}},
		{"range only", "range", []dataspace.Query{uni.WithRange(4, 2000, 2300)}},
		{"bitmap", "", []dataspace.Query{needle}},
		{"bitmap truncated", "", []dataspace.Query{needle2}},
		{"broad then narrow", "", []dataspace.Query{uni.WithRange(4, 0, 5000), uni.WithRange(4, 0, 20)}},
	}
	for _, tc := range cases {
		if tc.path != "" {
			before := s.PlanStats().Paths[tc.path]
			s.Select(tc.qs[0], 64)
			if s.PlanStats().Paths[tc.path] != before+1 {
				t.Fatalf("%s: query ran another access path: %v", tc.name, s.PlanStats().Paths)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, q := range tc.qs {
				s.Select(q, 64)
			}
		})
		if allocs > float64(len(tc.qs)) {
			t.Errorf("%s: %.1f allocs per %d Selects, want <= 1 each", tc.name, allocs, len(tc.qs))
		}
	}
	// Two siblings of one needle ∧ non-needle parent node walk the memo
	// and allocate only their results. Two children each of two parents
	// sharing a memo slot miss on every parent's first child, which runs
	// the kernel, and memoize it on the second, which adds the memo entry
	// and its rank list.
	a, b := prefixOf(s, datagen.PathoNeedle, 2), prefixOf(s, datagen.PathoNeedle, 7)
	if slotOf(s, a) != slotOf(s, b) {
		t.Fatal("the memo-miss parents no longer share a slot")
	}
	hit := []dataspace.Query{a.WithValue(2, 1), a.WithValue(2, 3)}
	miss := []dataspace.Query{a.WithValue(2, 1), a.WithValue(2, 3), b.WithValue(2, 1), b.WithValue(2, 4)}
	before := s.PlanStats().Paths["bitmap"]
	for i, q := range miss {
		if first := i%2 == 0; first && walks(s, q) || !walks(s, q) {
			t.Fatalf("%s: its parent was not memoized on exactly its second query", q)
		}
		if len(s.Select(q, 64)) == 0 {
			t.Fatalf("%s matched nothing: its result would not allocate", q)
		}
	}
	if got := s.PlanStats().Paths["bitmap"] - before; got != int64(len(miss)) {
		t.Fatalf("the memo cases ran %d bitmap plans, want %d: %v", got, len(miss), s.PlanStats().Paths)
	}
	for _, q := range hit { // b holds the slot: memoize a again
		s.Select(q, 64)
	}
	entry := entryFor(s, a)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, q := range hit {
			s.Select(q, 64)
		}
	}); allocs > 2 {
		t.Errorf("memo hit: %.1f allocs per 2 Selects, want <= 1 each", allocs)
	}
	if entryFor(s, a) != entry {
		t.Fatal("memo hit: a sibling replaced the memo entry")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, q := range miss {
			s.Select(q, 64)
		}
	}); allocs > 4+2*2 {
		t.Errorf("memo miss: %.1f allocs per 4 Selects and 2 memoized parents, want <= 8", allocs)
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
