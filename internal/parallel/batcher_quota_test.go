package parallel

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// roundTrips counts AnswerBatch/Answer calls reaching the wrapped server —
// the round trips a real remote client would pay for — and records the
// most in progress at once (peak) and the widest batch.
type roundTrips struct {
	hiddendb.Server
	mu                          sync.Mutex
	calls, active, peak, widest int
}

func (r *roundTrips) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, r, q)
}

func (r *roundTrips) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	r.mu.Lock()
	r.calls++
	r.active++
	r.peak = max(r.peak, r.active)
	r.widest = max(r.widest, len(qs))
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.active--
		r.mu.Unlock()
	}()
	return r.Server.AnswerBatch(ctx, qs)
}

func (r *roundTrips) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// TestBatcherFailsFastAfterQuota is the post-failure hammering
// regression: once a round trip fails — a quota running dry with a short
// answered prefix, or any other error, such as an injected fault — later
// distinct queries must fail fast from the latched error instead of each
// paying a round trip, since the failure already fails the crawl.
func TestBatcherFailsFastAfterQuota(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          200,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]dataspace.Query, 5)
	for i := range qs {
		lo := int64(i * 3)
		qs[i] = dataspace.UniverseQuery(ds.Schema).WithRange(1, lo, lo+2)
	}

	for _, tc := range []struct {
		name string
		srv  hiddendb.Server // answers two queries, then fails the third
		want error
	}{
		{"quota", hiddendb.NewQuota(local, 2), hiddendb.ErrQuotaExceeded},
		{"injected", hiddendb.NewFlaky(local, hiddendb.FlakyConfig{FailNth: 3}), hiddendb.ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &roundTrips{Server: tc.srv}
			// maxBatch = depth = 1 keeps the dispatch order deterministic:
			// each Answer is its own round trip.
			b := newBatcher(context.Background(), rt, 1, 1, nil)
			defer b.close()

			for i := 0; i < 2; i++ {
				if _, err := b.Answer(qs[i]); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}
			// The third pays the round trip that fails, cut short with an
			// empty answered prefix.
			if _, err := b.Answer(qs[2]); !errors.Is(err, tc.want) {
				t.Fatalf("query 2: err=%v, want %v", err, tc.want)
			}
			after := rt.count()
			if after != 3 {
				t.Fatalf("round trips at the failure: %d, want 3", after)
			}

			// Every later distinct query fails fast — zero further round
			// trips.
			for i := 3; i < 5; i++ {
				if _, err := b.Answer(qs[i]); !errors.Is(err, tc.want) {
					t.Fatalf("query %d after the failure: err=%v, want %v", i, err, tc.want)
				}
			}
			if got := rt.count(); got != after {
				t.Fatalf("queries after the failure paid %d extra round trips, want 0", got-after)
			}
		})
	}
}

// TestParallelCrawlStopsAtQuota: a whole parallel crawl against an
// exhausted budget issues no storm of doomed round trips — the round-trip
// count stays within the batches in flight when the quota tripped. The
// failed crawl returns its books: a partial Result, and through CrawlSeq a
// PartialError, whose Queries is the count the store was paid.
func TestParallelCrawlStopsAtQuota(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          2000,
		CatDomains: []int{6},
		NumRanges:  [][2]int64{{0, 5000}},
		DupRate:    0.05,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 7
	const workers = 4
	paid := hiddendb.NewCounting(hiddendb.NewQuota(local, budget))
	rt := &roundTrips{Server: paid}

	res, err := Crawler{Workers: workers}.Crawl(context.Background(), rt, nil)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("crawl on a %d-query budget: err=%v, want quota", budget, err)
	}
	if res == nil || res.Queries != paid.Queries() {
		t.Fatalf("failed crawl returned %+v, want a partial Result of the %d paid queries", res, paid.Queries())
	}
	// Before the latch fix, every ready query after exhaustion paid its
	// own doomed round trip. With it, only round trips already in flight
	// when the quota tripped can still land: the budget's trips plus at
	// most one per worker.
	if got := rt.count(); got > budget+workers {
		t.Fatalf("%d round trips for a %d-query budget with %d workers; post-quota hammering is back", got, budget, workers)
	}

	paid = hiddendb.NewCounting(hiddendb.NewQuota(local, budget))
	var pe *core.PartialError
	for _, err := range core.CrawlSeq(context.Background(), Crawler{Workers: workers}, paid, nil) {
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("CrawlSeq: err=%v, want a PartialError", err)
		}
	}
	if pe == nil || !errors.Is(pe, hiddendb.ErrQuotaExceeded) || pe.Queries != paid.Queries() {
		t.Fatalf("CrawlSeq ended with %v, want quota after the %d paid queries", pe, paid.Queries())
	}
}
