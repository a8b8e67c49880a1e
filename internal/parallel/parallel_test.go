package parallel

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/httpserver"
)

func dataset(t *testing.T, spec datagen.RandomSpec, seed uint64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Random(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func server(t *testing.T, ds *datagen.Dataset, k int) *hiddendb.Local {
	t.Helper()
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func specs() map[string]datagen.RandomSpec {
	return map[string]datagen.RandomSpec{
		"numeric": {
			N: 4000, NumRanges: [][2]int64{{0, 100000}, {0, 500}}, DupRate: 0.05,
		},
		"categorical": {
			N: 4000, CatDomains: []int{5, 12, 80}, Skew: 0.8, DupRate: 0.05,
		},
		"cat1-mixed": {
			N: 4000, CatDomains: []int{17}, NumRanges: [][2]int64{{0, 9999}}, Skew: 0.9,
		},
		"mixed": {
			N: 4000, CatDomains: []int{4, 9}, NumRanges: [][2]int64{{0, 9999}}, Skew: 0.5, DupRate: 0.05,
		},
	}
}

func TestParallelCompleteEverySpace(t *testing.T) {
	seed := uint64(31)
	for name, spec := range specs() {
		ds := dataset(t, spec, seed)
		for _, workers := range []int{1, 4, 16} {
			k := 32
			if m := ds.Tuples.MaxMultiplicity(); m > k {
				k = m
			}
			srv := server(t, ds, k)
			res, err := (Crawler{Workers: workers}).Crawl(context.Background(), srv, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !res.Tuples.EqualMultiset(ds.Tuples) {
				t.Fatalf("%s workers=%d: incomplete bag (%d vs %d tuples)",
					name, workers, len(res.Tuples), len(ds.Tuples))
			}
		}
	}
}

// TestParallelCostEqualsSequential is the package's core claim: concurrency
// changes wall-clock time, never the query cost.
func TestParallelCostEqualsSequential(t *testing.T) {
	for name, spec := range specs() {
		ds := dataset(t, spec, 57)
		k := 32
		if m := ds.Tuples.MaxMultiplicity(); m > k {
			k = m
		}
		seq, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			par, err := (Crawler{Workers: workers}).Crawl(context.Background(), server(t, ds, k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if par.Queries != seq.Queries {
				t.Errorf("%s workers=%d: parallel cost %d != sequential %d",
					name, workers, par.Queries, seq.Queries)
			}
		}
	}
}

func TestParallelSpeedupUnderLatency(t *testing.T) {
	ds := dataset(t, datagen.RandomSpec{
		N: 3000, NumRanges: [][2]int64{{0, 100000}, {0, 1000}}, DupRate: 0.02,
	}, 91)
	k := 64
	delay := 3 * time.Millisecond
	run := func(workers int) time.Duration {
		srv := hiddendb.NewLatency(server(t, ds, k), delay, hiddendb.Wall)
		start := time.Now()
		res, err := (Crawler{Workers: workers}).Crawl(context.Background(), srv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatal("incomplete under latency")
		}
		return time.Since(start)
	}
	serial := run(1)
	wide := run(16)
	// With ~n/k*d independent queries and 16 workers, expect a large
	// speedup; assert a conservative 2x to stay robust on loaded machines.
	if wide > serial/2 {
		t.Errorf("16 workers took %v, 1 worker %v — expected at least 2x speedup", wide, serial)
	}
	t.Logf("1 worker: %v, 16 workers: %v (%.1fx)", serial, wide, float64(serial)/float64(wide))
}

func TestParallelUnsolvable(t *testing.T) {
	ds := dataset(t, datagen.RandomSpec{
		N: 1, NumRanges: [][2]int64{{0, 10}},
	}, 3)
	for i := 0; i < 9; i++ {
		ds.Tuples = append(ds.Tuples, ds.Tuples[0])
	}
	srv := server(t, ds, 4)
	_, err := (Crawler{Workers: 8}).Crawl(context.Background(), srv, nil)
	if !errors.Is(err, core.ErrUnsolvable) {
		t.Fatalf("err = %v, want ErrUnsolvable", err)
	}
}

func TestParallelQuotaPropagates(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 11)
	srv := hiddendb.NewQuota(server(t, ds, 16), 10)
	_, err := (Crawler{Workers: 8}).Crawl(context.Background(), srv, nil)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}

func TestParallelProgressCallbacks(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 13)
	srv := server(t, ds, 32)
	var points []core.CurvePoint
	res, err := (Crawler{Workers: 8}).Crawl(context.Background(), srv, &core.Options{
		OnProgress: func(p core.CurvePoint) { points = append(points, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != res.Queries {
		t.Errorf("OnProgress fired %d times for %d queries", len(points), res.Queries)
	}
	if final := points[len(points)-1]; final.Tuples > len(res.Tuples) {
		t.Errorf("final progress point %d tuples, more than the %d output", final.Tuples, len(res.Tuples))
	}

	// Running totals: with round trips completing concurrently and a slow
	// observer, every point still follows the previous one by exactly one
	// query, up to the crawl's total.
	t.Run("in-count-order", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			var last core.CurvePoint
			var bad []core.CurvePoint
			res, err := (Crawler{Workers: 4, InFlight: 4}).Crawl(context.Background(), server(t, ds, 32), &core.Options{
				OnProgress: func(p core.CurvePoint) {
					if p.Queries != last.Queries+1 || p.Tuples < last.Tuples {
						bad = append(bad, p)
					}
					last = p
					time.Sleep(20 * time.Microsecond)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 || last.Queries != res.Queries {
				t.Fatalf("trial %d: %d points out of count order (first %+v); last point %+v for %d queries",
					trial, len(bad), bad[:min(1, len(bad))], last, res.Queries)
			}
		}
	})

	// Output order: with round trips completing concurrently and a slow
	// consumer, the OnTuples chunks arrive one call at a time and their
	// concatenation is Result.Tuples, and CrawlSeq streams Result.Tuples
	// in order.
	t.Run("in-output-order", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			var mu sync.Mutex
			var got dataspace.Bag
			var active, overlaps atomic.Int32
			res, err := (Crawler{Workers: 8, InFlight: 4}).Crawl(context.Background(), server(t, ds, 32), &core.Options{
				OnTuples: func(chunk dataspace.Bag) {
					if active.Add(1) > 1 {
						overlaps.Add(1)
					}
					mu.Lock()
					got = append(got, chunk...)
					mu.Unlock()
					time.Sleep(5 * time.Microsecond)
					active.Add(-1)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := overlaps.Load(); n > 0 {
				t.Errorf("trial %d: %d OnTuples calls overlapped another", trial, n)
			}
			if !slices.EqualFunc(got, res.Tuples, dataspace.Tuple.Equal) {
				t.Fatalf("trial %d: the OnTuples chunks (%d tuples) are not Result.Tuples (%d)", trial, len(got), len(res.Tuples))
			}

			rec := &resultRecorder{Crawler: Crawler{Workers: 8, InFlight: 4}}
			var streamed dataspace.Bag
			for tu, err := range core.CrawlSeq(context.Background(), rec, server(t, ds, 32), nil) {
				if err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, tu)
			}
			if !slices.EqualFunc(streamed, rec.res.Tuples, dataspace.Tuple.Equal) {
				t.Fatalf("trial %d: CrawlSeq's %d tuples are not Result.Tuples (%d)", trial, len(streamed), len(rec.res.Tuples))
			}
		}
	})
}

// resultRecorder is a core.Crawler that runs its Crawler and keeps the
// Result.
type resultRecorder struct {
	Crawler
	res *core.Result
}

func (r *resultRecorder) Crawl(ctx context.Context, srv hiddendb.Server, opts *core.Options) (*core.Result, error) {
	res, err := r.Crawler.Crawl(ctx, srv, opts)
	r.res = res
	return res, err
}

func TestParallelQueryFilter(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 17)
	valid := map[[2]int64]bool{}
	for _, tu := range ds.Tuples {
		valid[[2]int64{tu[0], tu[1]}] = true
	}
	srv := server(t, ds, 16)
	res, err := (Crawler{Workers: 8}).Crawl(context.Background(), srv, &core.Options{
		QueryFilter: func(q dataspace.Query) bool {
			a, b := q.Pred(0), q.Pred(1)
			if a.Wild || b.Wild {
				return true
			}
			return valid[[2]int64{a.Value, b.Value}]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatal("filtered parallel crawl incomplete")
	}
}

// TestBatchedCrawlReducesRoundTrips is the acceptance property of the
// batched stack: a parallel crawl over HTTP issues the same number of
// queries as a sequential crawl but packs them into ~B× fewer round trips.
// It runs over a bare loopback and again with a 1 ms round trip behind
// the handler, as a remote site would charge.
func TestBatchedCrawlReducesRoundTrips(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 77)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	seq, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		latency time.Duration
	}{{"loopback", 0}, {"latency-1ms", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			var srv hiddendb.Server = server(t, ds, k)
			if tc.latency > 0 {
				srv = hiddendb.NewLatency(srv, tc.latency, hiddendb.Wall)
			}
			handler := httpserver.New(srv)
			ts := httptest.NewServer(handler)
			defer ts.Close()
			client, err := httpclient.Dial(context.Background(), ts.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := (Crawler{Workers: 16}).Crawl(context.Background(), client, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Tuples.EqualMultiset(ds.Tuples) {
				t.Fatal("batched remote crawl incomplete")
			}
			if res.Queries != seq.Queries {
				t.Fatalf("batched crawl cost %d != sequential %d — batching changed the metric", res.Queries, seq.Queries)
			}
			if got := handler.Queries(); got != res.Queries {
				t.Fatalf("server answered %d queries, crawler counted %d", got, res.Queries)
			}
			requests := handler.Requests()
			if requests >= res.Queries/2 {
				t.Fatalf("%d queries took %d round trips — batching is not batching", res.Queries, requests)
			}
			t.Logf("%d queries in %d round trips (%.1f queries/request)",
				res.Queries, requests, float64(res.Queries)/float64(requests))
		})
	}
}

// TestBatchSizeDoesNotChangeCost sweeps the batch width (Crawler.Workers),
// deep enough to keep at least 16 queries in flight: the query count is
// batching-invariant, per the AnswerBatch contract.
func TestBatchSizeDoesNotChangeCost(t *testing.T) {
	ds := dataset(t, specs()["cat1-mixed"], 79)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	seq, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 16, 64} {
		res, err := (Crawler{Workers: batch, InFlight: max(2, (16+batch-1)/batch)}).Crawl(context.Background(), server(t, ds, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatalf("batch=%d: incomplete", batch)
		}
		if res.Queries != seq.Queries {
			t.Fatalf("batch=%d: cost %d != sequential %d", batch, res.Queries, seq.Queries)
		}
	}
}

// TestShardedServerUnderParallelCrawl drives the whole tentpole stack at
// once: a sharded Local answering batches from the parallel crawler, with
// identical results and cost.
func TestShardedServerUnderParallelCrawl(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 83)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	seq, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := hiddendb.NewLocalSharded(ds.Schema, ds.Tuples, k, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Crawler{Workers: 16}).Crawl(context.Background(), sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatal("crawl over sharded server incomplete")
	}
	if res.Queries != seq.Queries {
		t.Fatalf("sharded cost %d != sequential %d", res.Queries, seq.Queries)
	}
}

// flaggingServer mimics a third-party batch server that answers a whole
// batch and reports quota exhaustion alongside the full results (instead
// of the prefix contract this package's servers follow). Like any Server
// under the pipelined batcher it must tolerate concurrent batches, hence
// the mutex around the budget.
type flaggingServer struct {
	inner  hiddendb.Server
	mu     sync.Mutex
	budget int
}

func (f *flaggingServer) take() (ok, exhausted bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget <= 0 {
		return false, true
	}
	f.budget--
	return true, f.budget == 0
}

func (f *flaggingServer) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, f, q)
}

func (f *flaggingServer) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	out := make([]hiddendb.Result, 0, len(qs))
	exhausted := false
	for _, q := range qs {
		var ok bool
		ok, exhausted = f.take()
		if !ok {
			return out, hiddendb.ErrQuotaExceeded
		}
		res, err := f.inner.Answer(ctx, q)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	if exhausted {
		// Full results plus the error — the shape the batcher must not
		// drop on the floor.
		return out, hiddendb.ErrQuotaExceeded
	}
	return out, nil
}

func (f *flaggingServer) K() int                    { return f.inner.K() }
func (f *flaggingServer) Schema() *dataspace.Schema { return f.inner.Schema() }

// TestBatchErrorWithFullResultsNotDropped: a quota signal attached to a
// fully answered batch must still abort the crawl (deferred to the next
// query) rather than vanish.
func TestBatchErrorWithFullResultsNotDropped(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 19)
	srv := &flaggingServer{inner: server(t, ds, 16), budget: 10}
	_, err := (Crawler{Workers: 8}).Crawl(context.Background(), srv, nil)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}

func TestName(t *testing.T) {
	if (Crawler{}).Name() != "parallel-hybrid(1)" {
		t.Error("default name wrong")
	}
	if (Crawler{Workers: 8}).Name() != "parallel-hybrid(8)" {
		t.Error("worker count not in name")
	}
}
