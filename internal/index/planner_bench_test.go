package index

import (
	"sync"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
)

// patho1M lazily builds the shared million-tuple pathological store: every
// match of the needle conjunction sits at the bottom of the rank space, so
// no access path can early-exit near the top — the workload the bitmap
// path exists for. Built once per bench binary (~1M tuples × 6 attributes
// plus all indexes).
var patho1M struct {
	once sync.Once
	s    *Store
}

func patho1MStore(b *testing.B) *Store {
	b.Helper()
	patho1M.once.Do(func() {
		d := datagen.Tiered(datagen.PatternPathological, datagen.Tier1M, 1)
		s, err := New(d.Schema, d.Tuples)
		if err != nil {
			b.Fatal(err)
		}
		patho1M.s = s
	})
	return patho1M.s
}

// needleQuery is the 3-way intersection C1=C2=C3=needle: each predicate
// alone matches ~170k of the million tuples, the conjunction only the
// bottom ~1k ranks.
func needleQuery(s *Store) dataspace.Query {
	return dataspace.UniverseQuery(s.Schema()).
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
}

// BenchmarkSelect3WayIntersect1M measures the planner on the needle
// conjunction — the cost model routes it to the word-parallel bitmap AND
// instead of walking the tightest ~170k-rank posting list.
func BenchmarkSelect3WayIntersect1M(b *testing.B) {
	s := patho1MStore(b)
	q := needleQuery(s)
	s.Select(q, 64) // warm the scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) != 65 {
			b.Fatalf("needle select returned %d tuples", len(got))
		}
	}
}

// BenchmarkPlan1M measures planning alone — the per-query cost every Select
// and Count pays — for the needle (bitmap), posting and range queries on
// the 1M store. Planning must allocate nothing.
func BenchmarkPlan1M(b *testing.B) {
	s := patho1MStore(b)
	uni := dataspace.UniverseQuery(s.Schema())
	for _, bc := range []struct {
		name string
		q    dataspace.Query
		path pathKind
	}{
		{"needle", needleQuery(s), pathBitmap},
		{"posting", uni.WithValue(3, 7), pathPosting},
		{"range", uni.WithRange(4, 0, 5000).WithValue(0, datagen.PathoNeedle+1), pathRange},
	} {
		b.Run(bc.name, func(b *testing.B) {
			preds := bc.q.Preds()
			if pl := s.planQuery(preds, 65); pl.path != bc.path {
				b.Fatalf("planned %s, want %s", pathNames[pl.path], pathNames[bc.path])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.planQuery(preds, 65)
			}
		})
	}
}

// BenchmarkSelectLowCardEq1M measures a single low-cardinality equality on
// the 1M store. The sampled cost model sends this broad predicate (~3%
// selective) to the early-exiting chunked scan, not the 31k-rank posting
// walk the fixed n/4 margin used to pick.
func BenchmarkSelectLowCardEq1M(b *testing.B) {
	s := patho1MStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(1, 5)
	s.Select(q, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) != 65 {
			b.Fatalf("low-card equality returned %d tuples", len(got))
		}
	}
}

// BenchmarkSelectRangeEq1M measures range ∩ equality on the 1M store: a
// 5k-rank numeric segment filtered by a categorical probe, rank-restored
// with the pooled sort.
func BenchmarkSelectRangeEq1M(b *testing.B) {
	s := patho1MStore(b)
	q := dataspace.UniverseQuery(s.Schema()).
		WithRange(4, 0, 5000).
		WithValue(0, datagen.PathoNeedle+1)
	s.Select(q, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) == 0 {
			b.Fatal("range ∩ equality matched nothing")
		}
	}
}

// BenchmarkCount3Way1M measures the popcount fast path: an all-bitmap
// conjunction counted without enumerating a single candidate.
func BenchmarkCount3Way1M(b *testing.B) {
	s := patho1MStore(b)
	q := needleQuery(s)
	want := s.Size() / 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := s.Count(q); c != want {
			b.Fatalf("needle count = %d, want %d", c, want)
		}
	}
}
