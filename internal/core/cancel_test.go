package core

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// cancelAfter is a Server wrapper that cancels the given cancel func once
// the wrapped server has served `serve` queries, and fails everything past
// that point with the (then-cancelled) ctx's error. It simulates a
// cancellation landing while a query (or mid-batch, a batch) is in flight
// — the hardest case for budget accounting, since the layers above have
// already debited work the store will never do.
type cancelAfter struct {
	hiddendb.Server
	cancel context.CancelFunc
	serve  int
}

func (c *cancelAfter) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, c, q)
}

func (c *cancelAfter) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	out := make([]hiddendb.Result, 0, len(qs))
	for _, q := range qs {
		if c.serve == 0 {
			c.cancel()
			return out, ctx.Err()
		}
		c.serve--
		res, err := hiddendb.Answer(ctx, c.Server, q)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// sessionStack builds the per-client stack of the session package —
// journal wrapper → Quota → Counting → srv — around an
// arbitrary innermost server, exposing each layer for the invariant
// checks.
func sessionStack(t *testing.T, inner hiddendb.Server, jnl *journal.Journal, budget int) (srv hiddendb.Server, counting *hiddendb.Counting, quota *hiddendb.Quota) {
	t.Helper()
	counting = hiddendb.NewCounting(inner)
	quota = hiddendb.NewQuota(counting, budget)
	jsrv, err := journal.Wrap(quota, jnl)
	if err != nil {
		t.Fatal(err)
	}
	return jsrv, counting, quota
}

// TestCancelMidCrawlInvariants cancels a sequential crawl while a query is
// in flight and asserts the counting wrapper, the quota, the journal and
// the crawl's partial Result agree exactly: every query the store served
// is journaled, debited and counted, and nothing else was — no query paid
// twice, no refund leaked. The crawl then resumes with the same journal
// and the combined cost equals an uninterrupted reference crawl's.
func TestCancelMidCrawlInvariants(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          3000,
		CatDomains: []int{4, 9},
		NumRanges:  [][2]int64{{0, 9999}},
		Skew:       0.5,
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}

	ref, err := Hybrid{}.Crawl(context.Background(), newServer(t, ds, k, 42), nil)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 1_000_000
	for _, cutoff := range []int{0, 1, 7, 40} {
		local := newServer(t, ds, k, 42)
		jnl := journal.New(ds.Schema, k)
		ctx, cancel := context.WithCancel(context.Background())
		srv, counting, quota := sessionStack(t, &cancelAfter{Server: local, cancel: cancel, serve: cutoff}, jnl, budget)

		part, err := Hybrid{}.Crawl(ctx, srv, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cutoff %d: err = %v, want context.Canceled", cutoff, err)
		}

		paid := counting.Queries()
		if paid != cutoff {
			t.Errorf("cutoff %d: store served %d queries", cutoff, paid)
		}
		if part == nil || part.Queries != paid {
			t.Errorf("cutoff %d: cancelled crawl returned %+v, want a partial Result of %d queries", cutoff, part, paid)
		}
		if jnl.Len() != paid {
			t.Errorf("cutoff %d: journal holds %d entries, store served %d — a paid query went unrecorded or a free one was journaled",
				cutoff, jnl.Len(), paid)
		}
		if spent := budget - quota.Remaining(); spent != paid {
			t.Errorf("cutoff %d: quota debited %d for %d served queries — cancelled query charged or refund leaked",
				cutoff, spent, paid)
		}

		// Resume with the same journal over a fresh stack: the replays are
		// free, and the combined cost is exactly the reference crawl's.
		srv2, counting2, _ := sessionStack(t, newServer(t, ds, k, 42), jnl, budget)
		res, err := Hybrid{}.Crawl(context.Background(), srv2, nil)
		if err != nil {
			t.Fatalf("cutoff %d: resume: %v", cutoff, err)
		}
		checkComplete(t, ds, res)
		if paid+counting2.Queries() != ref.Queries {
			t.Errorf("cutoff %d: interrupted %d + resumed %d queries != reference %d — a query was paid twice or skipped",
				cutoff, paid, counting2.Queries(), ref.Queries)
		}
	}
}

// TestCancelBetweenQueries cancels from a progress callback — i.e. between
// queries, with nothing in flight — and asserts the same agreement plus a
// prompt stop (no further queries after the cancellation).
func TestCancelBetweenQueries(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          2000,
		CatDomains: []int{5, 12, 80},
		Skew:       0.8,
		DupRate:    0.05,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	const budget = 1_000_000
	const stopAt = 9
	jnl := journal.New(ds.Schema, k)
	srv, counting, quota := sessionStack(t, newServer(t, ds, k, 42), jnl, budget)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = LazySliceCover{}.Crawl(ctx, srv, &Options{OnProgress: func(p CurvePoint) {
		if p.Queries == stopAt {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if counting.Queries() != stopAt {
		t.Errorf("store served %d queries after cancelling at %d", counting.Queries(), stopAt)
	}
	if jnl.Len() != stopAt || budget-quota.Remaining() != stopAt {
		t.Errorf("journal %d / debited %d, want both %d", jnl.Len(), budget-quota.Remaining(), stopAt)
	}
}
