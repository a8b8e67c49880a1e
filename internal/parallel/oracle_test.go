package parallel

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
	"hidb/internal/simrand"
)

// randomSpec draws a random schema shape: purely numeric, purely
// categorical, or mixed, with random domain sizes and cardinality.
func randomSpec(rng *simrand.RNG) datagen.RandomSpec {
	spec := datagen.RandomSpec{
		N:       500 + rng.Intn(2500),
		DupRate: rng.Float64() * 0.1,
		Skew:    rng.Float64(),
	}
	cats := rng.Intn(3)
	nums := rng.Intn(3)
	if cats == 0 && nums == 0 {
		nums = 1
	}
	for i := 0; i < cats; i++ {
		spec.CatDomains = append(spec.CatDomains, 2+rng.Intn(40))
	}
	for i := 0; i < nums; i++ {
		spec.NumRanges = append(spec.NumRanges, [2]int64{0, 50 + rng.Int64n(100_000)})
	}
	return spec
}

// pairFilter is TestParallelQueryFilter's dependency heuristic for any
// schema: when A1 and A2 are categorical, a query pinning both to a pair
// no tuple has is skipped. With fewer than two categorical attributes the
// filter skips nothing.
func pairFilter(ds *datagen.Dataset) func(dataspace.Query) bool {
	if ds.Schema.Cat() < 2 {
		return func(dataspace.Query) bool { return true }
	}
	valid := map[[2]int64]bool{}
	for _, tu := range ds.Tuples {
		valid[[2]int64{tu[0], tu[1]}] = true
	}
	return func(q dataspace.Query) bool {
		a, b := q.Pred(0), q.Pred(1)
		return a.Wild || b.Wild || valid[[2]int64{a.Value, b.Value}]
	}
}

// checkMatches crawls ds at answer limit k with the sequential hybrid and
// with par, both under opts, and fails unless the parallel crawl has the
// sequential one's query, resolved, overflowed and skipped counts and
// extracted exactly ds's tuple multiset. Both crawls must keep the crawl
// contract: the OnProgress points step by one query up to
// Result.Queries, the OnTuples chunks concatenate to Result.Tuples, and
// no QueryFilter call overlaps another. It returns the sequential result.
func checkMatches(t *testing.T, what string, ds *datagen.Dataset, k int, par Crawler, opts core.Options) *core.Result {
	t.Helper()
	crawl := func(c core.Crawler) *core.Result {
		t.Helper()
		var points []core.CurvePoint
		var chunks dataspace.Bag
		var filtering, overlaps atomic.Int32
		o := opts
		o.OnProgress = func(p core.CurvePoint) { points = append(points, p) }
		o.OnTuples = func(chunk dataspace.Bag) { chunks = append(chunks, chunk...) }
		if filter := opts.QueryFilter; filter != nil {
			o.QueryFilter = func(q dataspace.Query) bool {
				if filtering.Add(1) > 1 {
					overlaps.Add(1)
				}
				defer filtering.Add(-1)
				return filter(q)
			}
		}
		res, err := c.Crawl(context.Background(), server(t, ds, k), &o)
		if err != nil {
			t.Fatalf("%s: %s: %v", what, c.Name(), err)
		}
		for i, p := range points {
			if p.Queries != i+1 {
				t.Fatalf("%s: %s: progress point %d is %+v, not a running total", what, c.Name(), i, p)
			}
		}
		if len(points) != res.Queries {
			t.Errorf("%s: %s: %d progress points for %d queries", what, c.Name(), len(points), res.Queries)
		}
		if !slices.EqualFunc(chunks, res.Tuples, dataspace.Tuple.Equal) {
			t.Errorf("%s: %s: the OnTuples chunks (%d tuples) are not Result.Tuples (%d)", what, c.Name(), len(chunks), len(res.Tuples))
		}
		if n := overlaps.Load(); n > 0 {
			t.Errorf("%s: %s: %d QueryFilter calls overlapped another", what, c.Name(), n)
		}
		return res
	}
	ref, res := crawl(core.Hybrid{}), crawl(par)
	got := [4]int{res.Queries, res.Resolved, res.Overflowed, res.Skipped}
	want := [4]int{ref.Queries, ref.Resolved, ref.Overflowed, ref.Skipped}
	if got != want {
		t.Errorf("%s: (queries, resolved, overflowed, skipped) = %v, sequential %v", what, got, want)
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Errorf("%s: tuple multiset differs from the database", what)
	}
	return ref
}

// TestSequentialEquivalenceOracle is the randomized oracle behind the
// package's core claim: across random schemas, batch widths and pipeline
// depths, the parallel crawl's query, resolved, overflowed and skipped
// counts and its extracted tuple multiset are exactly the sequential
// algorithm's, and both crawls keep the crawl contract (see checkMatches).
// One case per trial runs both crawls under pairFilter.
// Each trial also picks a random cancellation point and checks the
// interruption invariants: the journal holds exactly the queries the
// store served, and a resume on that journal completes the extraction
// with a combined cost equal to the sequential reference. Run under -race
// this doubles as a lock-discipline check of the pipelined dispatcher.
func TestSequentialEquivalenceOracle(t *testing.T) {
	rng := simrand.New(0xA11CE)
	batches := []int{1, 4, 16}
	depths := []int{1, 2, 4}
	const trials = 5
	skipped := 0
	for trial := 0; trial < trials; trial++ {
		spec := randomSpec(rng)
		ds, err := datagen.Random(spec, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		k := 16 + rng.Intn(48)
		if m := ds.Tuples.MaxMultiplicity(); m > k {
			k = m
		}
		var ref *core.Result
		for _, batch := range batches {
			for _, depth := range depths {
				ref = checkMatches(t, fmt.Sprintf("trial %d batch=%d depth=%d (spec %+v, k=%d)", trial, batch, depth, spec, k),
					ds, k, Crawler{Workers: batch, InFlight: depth}, core.Options{})
			}
		}

		// The filtered case, at a batch width and depth that vary with the
		// trial.
		fbatch, fdepth := batches[trial%len(batches)], depths[trial/len(batches)%len(depths)]
		fref := checkMatches(t, fmt.Sprintf("trial %d filtered batch=%d depth=%d (spec %+v, k=%d)", trial, fbatch, fdepth, spec, k),
			ds, k, Crawler{Workers: fbatch, InFlight: fdepth}, core.Options{QueryFilter: pairFilter(ds)})
		skipped += fref.Skipped

		// A random cancellation point: cancel the crawl once the store has
		// served cut queries, then verify the interruption invariants and
		// resume to completion.
		cut := 1 + rng.Intn(ref.Queries)
		depth := depths[rng.Intn(len(depths))]
		counting := hiddendb.NewCounting(server(t, ds, k))
		ctx, cancel := context.WithCancel(context.Background())
		jnl := journal.New(ds.Schema, k)
		jsrv, err := journal.Wrap(counting, jnl)
		if err != nil {
			t.Fatal(err)
		}
		_, err = (Crawler{Workers: 16, InFlight: depth}).Crawl(ctx, jsrv, &core.Options{
			OnProgress: func(p core.CurvePoint) {
				if p.Queries >= cut {
					cancel()
				}
			},
		})
		cancel()
		if err == nil {
			// The cancellation may land after the crawl's last query; a
			// clean finish must then be a complete, cost-exact extraction
			// (checked below via the journal).
			if jnl.Len() != ref.Queries {
				t.Errorf("trial %d: uninterrupted crawl journaled %d queries, want %d", trial, jnl.Len(), ref.Queries)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d cut=%d: err = %v, want context.Canceled", trial, cut, err)
		}
		paid := counting.Queries()
		if jnl.Len() != paid {
			t.Errorf("trial %d cut=%d: journal %d entries for %d served queries", trial, cut, jnl.Len(), paid)
		}

		counting2 := hiddendb.NewCounting(server(t, ds, k))
		jsrv2, err := journal.Wrap(counting2, jnl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (Crawler{Workers: 16, InFlight: depth}).Crawl(context.Background(), jsrv2, nil)
		if err != nil {
			t.Fatalf("trial %d cut=%d: resume: %v", trial, cut, err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatalf("trial %d cut=%d: resumed crawl incomplete", trial, cut)
		}
		if paid+counting2.Queries() != ref.Queries {
			t.Errorf("trial %d cut=%d depth=%d: interrupted %d + resumed %d != reference %d",
				trial, cut, depth, paid, counting2.Queries(), ref.Queries)
		}
	}
	if skipped == 0 {
		t.Error("no trial's filter skipped a query, so the filtered cases checked nothing")
	}
}

// FuzzParallelMatchesSequential fuzzes the oracle's claim: on a randomSpec
// dataset drawn from seed, at answer limit k, the parallel crawl with
// batch width {1, 4, 16}[batchIdx%3] and pipeline depth
// {1, 2, 4}[depthIdx%3] has the sequential hybrid's query, resolved,
// overflowed and skipped counts and extracts the whole database, and both
// crawls keep the crawl contract (see checkMatches). Odd seeds crawl
// under pairFilter.
func FuzzParallelMatchesSequential(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(8), uint8(2), uint8(2))
	f.Add(uint64(0xA11CE), uint8(63), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, kIn, batchIdx, depthIdx uint8) {
		rng := simrand.New(seed)
		ds, err := datagen.Random(randomSpec(rng), rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		k := max(4+int(kIn)%60, ds.Tuples.MaxMultiplicity())
		par := Crawler{Workers: []int{1, 4, 16}[batchIdx%3], InFlight: []int{1, 2, 4}[depthIdx%3]}
		var opts core.Options
		if seed%2 == 1 {
			opts.QueryFilter = pairFilter(ds)
		}
		checkMatches(t, fmt.Sprintf("k=%d batch=%d depth=%d", k, par.Workers, par.InFlight), ds, k, par, opts)
	})
}
