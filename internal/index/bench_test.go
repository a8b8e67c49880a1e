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

// BenchmarkSelectGallop pins the galloping-merge intersection itself
// (forced past the planner's cache-size heuristic, which prefers column
// probes at this store size), so regressions in the large-store path stay
// visible.
func BenchmarkSelectGallop(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(0, 3).WithValue(1, 7)
	preds := q.Preds()
	pl, ok := forcePlan(s, preds, 65, pathGallop)
	if !ok {
		b.Fatal("expected a posting ∩ posting plan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.execSelect(pl, preds, 65); len(got) != 65 {
			b.Fatalf("gallop returned %d tuples", len(got))
		}
	}
}

// BenchmarkCount covers the index-backed Count fast path on a
// two-predicate query (no ordering, no allocation).
func BenchmarkCount(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(1, 7).WithRange(2, 0, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := s.Count(q); c == 0 {
			b.Fatal("count returned 0")
		}
	}
}

// BenchmarkCountScanBaseline measures what Count cost before the
// index-backed fast path: a full priority-order scan with Covers.
func BenchmarkCountScanBaseline(b *testing.B) {
	s := benchStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(1, 7).WithRange(2, 0, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := 0
		for _, t := range s.All() {
			if q.Covers(t) {
				c++
			}
		}
		if c == 0 {
			b.Fatal("count returned 0")
		}
	}
}
