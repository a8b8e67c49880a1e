package parallel

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/core"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// flakyStack builds the full client-side decorator stack — journal →
// quota → counting — over a fault-injecting view of the store,
// the way a real crawl meets a flaky remote.
func flakyStack(t *testing.T, inner hiddendb.Server, cfg hiddendb.FlakyConfig, budget int) (srv hiddendb.Server, jnl *journal.Journal, counting *hiddendb.Counting, quota *hiddendb.Quota) {
	t.Helper()
	flaky := hiddendb.NewFlaky(inner, cfg)
	counting = hiddendb.NewCounting(flaky)
	quota = hiddendb.NewQuota(counting, budget)
	jnl = journal.New(inner.Schema(), inner.K())
	jsrv, err := journal.Wrap(quota, jnl)
	if err != nil {
		t.Fatal(err)
	}
	return jsrv, jnl, counting, quota
}

// TestFlakyPrefixStitchingThroughBatcher: a transient fault cutting a
// batch short must leave every layer agreeing on the answered prefix —
// the journal holds exactly the served queries, no more and no fewer —
// and a resume on that journal finishes the crawl at the sequential
// reference cost. This is the answered-prefix stitching regression for
// the speculative pipelined dispatcher: results landing before the fault
// are delivered to their waiting workers and recorded, even though other
// batches were in flight when the fault struck.
func TestFlakyPrefixStitchingThroughBatcher(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 67)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	ref, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 1_000_000
	for _, cfg := range []hiddendb.FlakyConfig{
		{FailNth: 17},                  // recurring transient faults
		{AbortFrom: 9, AbortUntil: 12}, // a window of ctx aborts
	} {
		srv, jnl, counting, quota := flakyStack(t, server(t, ds, k), cfg, budget)
		_, err := (Crawler{Workers: 8, InFlight: 2}).Crawl(context.Background(), srv, nil)
		if err == nil {
			t.Fatalf("cfg %+v: crawl survived the fault plan", cfg)
		}
		wantAbort := cfg.AbortUntil > cfg.AbortFrom
		if wantAbort && !hiddendb.Cancelled(err) {
			t.Fatalf("cfg %+v: err = %v, want a cancellation", cfg, err)
		}
		if !wantAbort && !errors.Is(err, hiddendb.ErrInjected) {
			t.Fatalf("cfg %+v: err = %v, want ErrInjected", cfg, err)
		}

		served := counting.Queries()
		if jnl.Len() != served {
			t.Errorf("cfg %+v: journal %d entries for %d served queries — prefix stitching broke",
				cfg, jnl.Len(), served)
		}
		if wantAbort {
			// Aborted queries are refunded: budget agrees with the store.
			if spent := budget - quota.Remaining(); spent != served {
				t.Errorf("cfg %+v: quota spent %d for %d served", cfg, spent, served)
			}
		}

		// Resume on the same journal with the faults gone: replays are
		// free, and the combined paid cost is exactly the sequential
		// reference — nothing double-paid, nothing lost.
		counting2 := hiddendb.NewCounting(server(t, ds, k))
		jsrv2, err := journal.Wrap(hiddendb.NewQuota(counting2, budget), jnl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (Crawler{Workers: 8, InFlight: 2}).Crawl(context.Background(), jsrv2, nil)
		if err != nil {
			t.Fatalf("cfg %+v: resume: %v", cfg, err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatalf("cfg %+v: resumed crawl incomplete", cfg)
		}
		if served+counting2.Queries() != ref.Queries {
			t.Errorf("cfg %+v: interrupted %d + resumed %d != reference %d",
				cfg, served, counting2.Queries(), ref.Queries)
		}
	}
}
