package diskstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/index"
)

// benchState lazily builds the shared bench fixtures: the 1M pathological
// tier as a disk store file and as an in-memory sharded store, plus the
// YahooLike dataset both ways. Built once per bench binary; the disk files
// live in one temp dir removed by TestMain.
var benchState struct {
	sync.Once
	dir string

	patho1MPath string
	patho1MMem  *index.Sharded

	yahooPath string
	yahooMem  *index.Sharded
	yahoo     *datagen.Dataset
}

const benchBands = 4

func benchSetup(tb testing.TB) {
	tb.Helper()
	benchState.Do(func() {
		dir, err := os.MkdirTemp("", "hidb-diskbench-*")
		if err != nil {
			tb.Fatal(err)
		}
		benchState.dir = dir

		ds := datagen.Tiered(datagen.PatternPathological, datagen.Tier1M, 1)
		benchState.patho1MPath = filepath.Join(dir, "patho-1m.hidb")
		if err := Build(benchState.patho1MPath, ds.Schema, slices.Values(ds.Tuples), BuildOptions{Bands: benchBands}); err != nil {
			tb.Fatal(err)
		}
		if benchState.patho1MMem, err = index.NewSharded(ds.Schema, ds.Tuples, benchBands); err != nil {
			tb.Fatal(err)
		}

		yds := datagen.YahooLike(11)
		benchState.yahoo = yds
		byRank := hiddendb.RankOrder(yds.Tuples, 42)
		benchState.yahooPath = filepath.Join(dir, "yahoo.hidb")
		if err := Build(benchState.yahooPath, yds.Schema, slices.Values(byRank), BuildOptions{Bands: benchBands}); err != nil {
			tb.Fatal(err)
		}
		if benchState.yahooMem, err = index.NewSharded(yds.Schema, byRank, benchBands); err != nil {
			tb.Fatal(err)
		}
	})
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchState.dir != "" {
		os.RemoveAll(benchState.dir)
	}
	os.Exit(code)
}

func benchOpen(b *testing.B, path string) *Store {
	b.Helper()
	s, err := Open(path, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// needle1M is the pathological 3-way intersection: each predicate alone
// matches ~1/6 of the million tuples, the conjunction only the bottom ~1k.
func needle1M(sch *dataspace.Schema) dataspace.Query {
	return dataspace.UniverseQuery(sch).
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
}

// reportMS attaches a deterministic-name timing metric ("_ms" series are
// exempt from the benchjson baseline pin — timing is machine noise).
func reportMS(b *testing.B, label string, d time.Duration) {
	b.ReportMetric(d.Seconds()*1000/float64(b.N), label+"_ms")
}

// BenchmarkIntersect3Way1MDiskCold measures the needle conjunction on a
// freshly opened disk store — the first-query latency a just-started
// server pays, dominated by the planner's bitmap AND over the mapped
// posting lists.
func BenchmarkIntersect3Way1MDiskCold(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := benchOpen(b, benchState.patho1MPath)
		if got := s.Select(needle1M(s.Schema()), 64); len(got) != 65 {
			b.Fatalf("needle select returned %d tuples", len(got))
		}
		s.Close()
	}
	reportMS(b, "intersect3way_1m_disk_cold", time.Since(start))
}

// BenchmarkIntersect3Way1MMemCold is the in-memory pair: the same needle
// query, planned and executed per iteration over an already-built store
// (fresh per-band stores are too expensive to rebuild per iteration — the
// store construction cost is what BenchmarkBuild1MDisk measures).
func BenchmarkIntersect3Way1MMemCold(b *testing.B) {
	benchSetup(b)
	s := benchState.patho1MMem
	q := needle1M(s.Schema())
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) != 65 {
			b.Fatalf("needle select returned %d tuples", len(got))
		}
	}
	reportMS(b, "intersect3way_1m_mem", time.Since(start))
}

// BenchmarkIntersect3Way1MDiskWarm measures the steady state: the needle
// query repeated on one open store, once its mapped pages are resident and
// its scratch pools are warm — the per-query cost a long-running disk
// server pays, to compare against BenchmarkIntersect3Way1MMemCold.
func BenchmarkIntersect3Way1MDiskWarm(b *testing.B) {
	benchSetup(b)
	s := benchOpen(b, benchState.patho1MPath)
	defer s.Close()
	q := needle1M(s.Schema())
	for i := 0; i < 20; i++ { // fault in the pages, fill the pools
		s.Select(q, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) != 65 {
			b.Fatalf("needle select returned %d tuples", len(got))
		}
	}
	reportMS(b, "intersect3way_1m_disk_warm", time.Since(start))
}

// crawlEngine runs a full extraction over the engine and returns the paid
// query count and wall time.
func crawlEngine(b *testing.B, eng index.Engine, k, wantTuples int) (int, time.Duration) {
	b.Helper()
	srv, err := hiddendb.NewLocalEngine(eng, k)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	res, err := core.ForSchema(eng.Schema()).Crawl(context.Background(), srv, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Tuples) != wantTuples {
		b.Fatalf("crawl extracted %d tuples, want %d", len(res.Tuples), wantTuples)
	}
	return res.Queries, time.Since(start)
}

// BenchmarkCrawlYahooLikeMemVsDisk runs the full YahooLike extraction
// against both engines over identical rank orders and pins the acceptance
// criterion in-bench: the disk crawl must pay exactly the in-memory
// crawl's query count. The _queries metric is the paper's cost measure
// (baseline-pinned); the _ms pair is the engine-swap overhead.
func BenchmarkCrawlYahooLikeMemVsDisk(b *testing.B) {
	benchSetup(b)
	const k = 1000
	n := benchState.yahoo.N()
	b.ResetTimer()
	var memQ, diskQ int
	var memT, diskT time.Duration
	for i := 0; i < b.N; i++ {
		q, t := crawlEngine(b, benchState.yahooMem, k, n)
		memQ, memT = q, memT+t
		disk := benchOpen(b, benchState.yahooPath)
		q, t = crawlEngine(b, disk, k, n)
		disk.Close()
		diskQ, diskT = q, diskT+t
		if diskQ != memQ {
			b.Fatalf("disk crawl paid %d queries, mem paid %d — the engine swap changed the cost metric", diskQ, memQ)
		}
	}
	b.ReportMetric(float64(memQ), "crawl_yahoo_queries")
	reportMS(b, "crawl_yahoo_mem", memT)
	reportMS(b, "crawl_yahoo_disk", diskT)
}

// BenchmarkCrawlPathological1MMemVsDisk is the same engine-swap pin on the
// full 1M pathological crawl — the acceptance criterion's workload: needle
// conjunctions that force deep descents, extracted completely by hybrid.
func BenchmarkCrawlPathological1MMemVsDisk(b *testing.B) {
	benchSetup(b)
	const k = 1000
	b.ResetTimer()
	var memQ, diskQ int
	var memT, diskT time.Duration
	for i := 0; i < b.N; i++ {
		q, t := crawlEngine(b, benchState.patho1MMem, k, datagen.Tier1M.N())
		memQ, memT = q, memT+t
		disk := benchOpen(b, benchState.patho1MPath)
		q, t = crawlEngine(b, disk, k, datagen.Tier1M.N())
		disk.Close()
		diskQ, diskT = q, diskT+t
		if diskQ != memQ {
			b.Fatalf("disk crawl paid %d queries, mem paid %d — the engine swap changed the cost metric", diskQ, memQ)
		}
	}
	b.ReportMetric(float64(memQ), "crawl_patho_1m_queries")
	reportMS(b, "crawl_patho_1m_mem", memT)
	reportMS(b, "crawl_patho_1m_disk", diskT)
}

// BenchmarkBuild1MDisk measures the streaming build of the 1M tier — the
// one-time cost the disk engine pays instead of the in-memory engine's
// per-start construction.
func BenchmarkBuild1MDisk(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(benchState.dir, fmt.Sprintf("build-%d.hidb", i))
		if err := Build(path, datagen.TierSchema(datagen.Tier1M),
			datagen.TieredSeq(datagen.PatternSequential, datagen.Tier1M, 1), BuildOptions{Bands: benchBands}); err != nil {
			b.Fatal(err)
		}
		os.Remove(path)
	}
	reportMS(b, "build_1m_disk", time.Since(start))
}

// BenchmarkCrawl10MDisk is the larger-than-RAM tier end to end: stream the
// 10M-tuple dataset into a store file (never materializing the relation),
// then extract it completely off disk pages. peak_heap_mb records the
// crawler+server peak heap — bounded by the extraction bag, not the
// relation + indexes an in-memory engine would hold — and the _queries
// metric pins the crawl's deterministic cost.
func BenchmarkCrawl10MDisk(b *testing.B) {
	if testing.Short() {
		b.Skip("10M tier build+crawl: minutes of work")
	}
	benchSetup(b)
	const k = 1000
	b.ResetTimer()
	var buildT, crawlT time.Duration
	var queries int
	var peak uint64
	for i := 0; i < b.N; i++ {
		path := filepath.Join(benchState.dir, "seq-10m.hidb")
		start := time.Now()
		if err := Build(path, datagen.TierSchema(datagen.Tier10M),
			datagen.TieredSeq(datagen.PatternSequential, datagen.Tier10M, 1), BuildOptions{Bands: benchBands}); err != nil {
			b.Fatal(err)
		}
		buildT += time.Since(start)
		s := benchOpen(b, path)
		q, t := crawlEngine(b, s, k, datagen.Tier10M.N())
		queries, crawlT = q, crawlT+t
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peak {
			peak = ms.HeapInuse
		}
		s.Close()
		os.Remove(path)
	}
	b.ReportMetric(float64(queries), "crawl_10m_queries")
	b.ReportMetric(float64(peak>>20), "crawl_10m_peak_heap_mb")
	reportMS(b, "build_10m_disk", buildT)
	reportMS(b, "crawl_10m_disk", crawlT)
}
