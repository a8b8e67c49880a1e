package parallel

import (
	"context"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
)

// simCrawl runs one parallel crawl under a fresh virtual clock and returns
// its deterministic virtual elapsed time, round-trip count and query cost.
func simCrawl(t *testing.T, ds *datagen.Dataset, k, workers, batch, depth int, delay time.Duration) (elapsed time.Duration, trips, queries int) {
	t.Helper()
	clock := hiddendb.NewSimClock()
	sim := hiddendb.NewLatency(server(t, ds, k), delay, clock)
	res, err := (Crawler{Workers: workers}).Crawl(context.Background(), sim, &core.Options{
		BatchSize: batch,
		InFlight:  depth,
		Clock:     clock,
	})
	if err != nil {
		t.Fatalf("sim crawl (workers=%d depth=%d): %v", workers, depth, err)
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatalf("sim crawl (workers=%d depth=%d): incomplete", workers, depth)
	}
	return clock.Now(), sim.Trips(), res.Queries
}

// wideDataset is a workload with a wide fan-out: rank-shrink over a large
// numeric space splits into hundreds of mutually independent rectangles,
// so the crawl keeps far more queries ready than one batch holds — the
// regime where pipeline depth matters. (Chain-dominated crawls are
// insensitive to depth: a dependency chain's next query is only ready when
// its predecessor completes, at which point a flight slot is free in
// either design.)
func wideDataset(t *testing.T) *datagen.Dataset {
	return dataset(t, datagen.RandomSpec{
		N:         20000,
		NumRanges: [][2]int64{{0, 500000}, {0, 2000}},
		DupRate:   0.02,
	}, 101)
}

// TestSimPipelineDeterministic: the virtual clock's whole point — the same
// crawl yields bit-identical virtual elapsed time, round trips and cost on
// every run, regardless of scheduler interleavings.
func TestSimPipelineDeterministic(t *testing.T) {
	ds := wideDataset(t)
	const k, workers, delay = 32, 16, 3 * time.Millisecond
	e1, t1, q1 := simCrawl(t, ds, k, workers, 0, 2, delay)
	e2, t2, q2 := simCrawl(t, ds, k, workers, 0, 2, delay)
	if e1 != e2 || t1 != t2 || q1 != q2 {
		t.Fatalf("virtual runs diverged: (%v, %d trips, %d queries) vs (%v, %d trips, %d queries)",
			e1, t1, q1, e2, t2, q2)
	}
	if e1 == 0 || t1 == 0 {
		t.Fatalf("virtual run measured nothing: elapsed %v, %d trips", e1, t1)
	}
}

// TestSpeculativePipelineBeatsFlushOnCompletion is the tentpole's
// acceptance claim, measured instead of asserted: at 32 workers under a
// simulated 3 ms round trip, the speculative double-buffered dispatcher
// (depth 2) beats the flush-on-completion batcher (depth 1) by at least
// 1.3× in (virtual) wall clock while regressing round trips by at most
// 10%, at bit-identical query cost.
func TestSpeculativePipelineBeatsFlushOnCompletion(t *testing.T) {
	ds := wideDataset(t)
	const k, workers, delay = 32, 32, 3 * time.Millisecond

	ref, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}

	e1, t1, q1 := simCrawl(t, ds, k, workers, 0, 1, delay)
	e2, t2, q2 := simCrawl(t, ds, k, workers, 0, 2, delay)

	if q1 != ref.Queries || q2 != ref.Queries {
		t.Fatalf("pipelining changed the cost metric: depth1 %d, depth2 %d, sequential %d",
			q1, q2, ref.Queries)
	}
	if 10*e1 < 13*e2 {
		t.Errorf("depth 2 is only %.2fx faster than flush-on-completion (%v vs %v), want >= 1.3x",
			float64(e1)/float64(e2), e2, e1)
	}
	if 10*t2 > 11*t1 {
		t.Errorf("depth 2 paid %d round trips vs %d at depth 1 — regression above 10%%", t2, t1)
	}
	t.Logf("depth 1: %v in %d trips; depth 2: %v in %d trips (%.2fx faster, %.1f%% more trips); %d queries",
		e1, t1, e2, t2, float64(e1)/float64(e2), 100*float64(t2-t1)/float64(t1), ref.Queries)
}

// TestSimDepthSweepCostInvariant: pipeline depth can never change the
// paper's cost metric, at any batch width.
func TestSimDepthSweepCostInvariant(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 47)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	ref, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4, 16} {
		for _, depth := range []int{1, 2, 4} {
			_, _, q := simCrawl(t, ds, k, 16, batch, depth, time.Millisecond)
			if q != ref.Queries {
				t.Errorf("batch=%d depth=%d: cost %d != sequential %d", batch, depth, q, ref.Queries)
			}
		}
	}
}

// TestSimSequentialCrawl: a sequential crawl over a Latency server on a
// SimClock drives the clock by itself — no holds, no batcher — and its
// virtual elapsed time is exactly queries × delay, since every paid query
// is one round trip.
func TestSimSequentialCrawl(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 53)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	const delay = 5 * time.Millisecond
	clock := hiddendb.NewSimClock()
	sim := hiddendb.NewLatency(server(t, ds, k), delay, clock)
	res, err := (core.Hybrid{}).Crawl(context.Background(), sim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(res.Queries) * delay; clock.Now() != want {
		t.Fatalf("sequential sim elapsed %v, want %d queries x %v = %v", clock.Now(), res.Queries, delay, want)
	}
	if sim.Trips() != res.Queries {
		t.Fatalf("sequential sim paid %d trips for %d queries", sim.Trips(), res.Queries)
	}
}
