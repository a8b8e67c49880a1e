package index

import (
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// benchStore builds a 50k-tuple store shaped like the paper's mixed
// workloads: two categorical attributes (one low-, one mid-cardinality) and
// two numeric ones. Run with -benchmem: the acceptance bar for the engine
// is at most one allocation per Select (the result slice) on every path.
func benchStore(b *testing.B) *Store {
	b.Helper()
	sch := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C1", Kind: dataspace.Categorical, DomainSize: 8},
		{Name: "C2", Kind: dataspace.Categorical, DomainSize: 50},
		{Name: "N1", Kind: dataspace.Numeric, Min: 0, Max: 100000},
		{Name: "N2", Kind: dataspace.Numeric, Min: -1000, Max: 1000},
	})
	rng := simrand.New(1)
	tuples := make([]dataspace.Tuple, 50000)
	for i := range tuples {
		tuples[i] = dataspace.Tuple{
			rng.IntRange(1, 8),
			rng.IntRange(1, 50),
			rng.IntRange(0, 100000),
			rng.IntRange(-1000, 1000),
		}
	}
	s, err := New(sch, tuples)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchSelect(b *testing.B, q dataspace.Query, limit int) {
	s := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := s.Select(q, limit)
		if len(got) == 0 {
			b.Fatal("benchmark query matched nothing")
		}
	}
}

// BenchmarkSelectScan exercises the priority-ordered columnar scan: the
// universe query overflows immediately, so the scan stops after limit+1.
func BenchmarkSelectScan(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 256); len(got) != 257 {
			b.Fatalf("scan returned %d tuples", len(got))
		}
	}
}

// BenchmarkSelectPosting exercises the single posting-list path
// (~1k candidates out of 50k).
func BenchmarkSelectPosting(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(1, 7)
	benchSelect(b, q, 256)
}

// BenchmarkSelectRange exercises the numeric-range path: pooled scratch
// ranks plus one allocation-free sort (~1k candidates).
func BenchmarkSelectRange(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithRange(2, 0, 2000)
	benchSelect(b, q, 256)
}

// BenchmarkSelectIntersectPostings exercises posting ∩ posting on an
// overflowing two-predicate query — the acceptance-criteria workload.
func BenchmarkSelectIntersectPostings(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(0, 3).WithValue(1, 7)
	benchSelect(b, q, 64)
}

// BenchmarkSelectIntersectPostingRange exercises posting ∩ numeric-range
// via the rank→sorted-position lookup, also overflowing at limit 64.
func BenchmarkSelectIntersectPostingRange(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(1, 7).WithRange(2, 0, 20000)
	benchSelect(b, q, 64)
}

// The kernel benchmarks time intersectInto alone, exactly (no max) into a
// reused buffer, over 16 blocks whose containers share ~22 ranks per block
// (~44 for two arrays alone); each must allocate nothing. The 1M
// pathological crawl's 47.9k bitmap blocks are 60% array-array-bitmap, 32%
// array-array, 4% three arrays and 3% array-bitmap-bitmap, its arrays
// holding ~1,700 ranks: above sparseIntersectMax, so every one of these
// blocks runs the probe kernel, driven by its smallest array.

// BenchmarkIntersectArrayBlocks times blocks of three ~1,700-rank array
// containers: two are materialized, one through andWords' array branch.
func BenchmarkIntersectArrayBlocks(b *testing.B) {
	lists := correlatedLists(simrand.New(1), 3, kernelBlocks<<16, 22.0/(1<<16), 1678.0/(1<<16))
	benchIntersectBlocks(b, lists, []uint8{containerArray, containerArray, containerArray})
}

// BenchmarkIntersectArrayArrayBlocks times the crawl's second shape: two
// ~1,700-rank arrays sharing ~44 ranks, one materialized and probed by the
// other.
func BenchmarkIntersectArrayArrayBlocks(b *testing.B) {
	lists := correlatedLists(simrand.New(3), 2, kernelBlocks<<16, 44.0/(1<<16), 1678.0/(1<<16))
	benchIntersectBlocks(b, lists, []uint8{containerArray, containerArray})
}

// BenchmarkIntersectArrayArrayBitmapBlocks times the crawl's dominant
// shape: two ~1,700-rank arrays and a dense bitmap container (a needle
// value's ~1/6 of the block) holding their shared ranks, read in place.
func BenchmarkIntersectArrayArrayBitmapBlocks(b *testing.B) {
	rng := simrand.New(2)
	lists := correlatedLists(rng, 2, kernelBlocks<<16, 22.0/(1<<16), 1678.0/(1<<16))
	dense := mergeUnique(randomList(rng, kernelBlocks<<16, 1.0/6), refIntersect(lists...))
	benchIntersectBlocks(b, append(lists, dense), []uint8{containerArray, containerArray, containerBitmap})
}

// kernelBlocks is the block count of the kernel benchmarks.
const kernelBlocks = 16

// benchIntersectBlocks builds one rank bitmap per list, checks that list i
// spans kernelBlocks blocks of kind kinds[i] (an array one above
// sparseIntersectMax) and that every block runs the probe kernel, and
// times their exact intersection.
func benchIntersectBlocks(b *testing.B, lists [][]int32, kinds []uint8) {
	bms := make([]*rankBitmap, len(lists))
	for i, l := range lists {
		bms[i] = buildRankBitmap(l)
		if len(bms[i].cs) != kernelBlocks {
			b.Fatalf("list %d spans %d blocks, want %d", i, len(bms[i].cs), kernelBlocks)
		}
		for _, c := range bms[i].cs {
			if c.kind != kinds[i] || c.kind == containerArray && c.card <= sparseIntersectMax {
				b.Fatalf("list %d built a kind-%d container of card %d, want a probe-path kind %d", i, c.kind, c.card, kinds[i])
			}
		}
	}
	for _, k := range blockKernels(bms) {
		if k != kernelProbe {
			b.Fatalf("a block ran kernel %d, want the probe", k)
		}
	}
	want := len(refIntersect(lists...))
	words := make([]uint64, 2*bitmapWords)
	dst := make([]int32, 0, want)
	if allocs := testing.AllocsPerRun(10, func() { dst = intersectInto(bms, words, dst[:0], -1) }); allocs != 0 {
		b.Fatalf("intersectInto: %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = intersectInto(bms, words, dst[:0], -1)
		if len(dst) != want {
			b.Fatalf("intersection has %d ranks, want %d", len(dst), want)
		}
	}
}
