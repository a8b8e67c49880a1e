package parallel

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// cancelMidBatch serves a fixed number of queries — across Answer and
// AnswerBatch alike — then cancels the crawl and fails everything further
// with the ctx's error, cutting batches short at an answered prefix. It
// is the deterministic stand-in for a cancellation landing while batches
// are in flight.
type cancelMidBatch struct {
	hiddendb.Server
	cancel context.CancelFunc

	mu    sync.Mutex
	serve int
}

func (c *cancelMidBatch) take(n int) (granted int, exhausted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.serve {
		n = c.serve
	}
	c.serve -= n
	return n, c.serve == 0
}

func (c *cancelMidBatch) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, c, q)
}

// Granted queries are served under a background ctx — they model work
// already on the wire when the cancellation lands, which completes.
func (c *cancelMidBatch) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	n, exhausted := c.take(len(qs))
	if exhausted {
		defer c.cancel()
	}
	res, err := c.Server.AnswerBatch(context.Background(), qs[:n])
	if err != nil {
		return res, err
	}
	if n < len(qs) {
		return res, context.Canceled
	}
	return res, nil
}

// TestParallelCancelInvariants cancels a parallel crawl mid-batch and
// asserts the session-stack layers agree: every query the store answered
// is in the journal, debited from the quota and counted in the crawl's
// partial Result, and nothing else is — no double pay, no leaked refund —
// even with batches cut short at answered prefixes. The crawl then resumes on the same journal and the combined
// cost equals the sequential reference. Run under -race this also checks
// the cancellation paths' locking.
func TestParallelCancelInvariants(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 19)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	ref, err := (core.Hybrid{}).Crawl(context.Background(), server(t, ds, k), nil)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 1_000_000
	for _, cutoff := range []int{1, 5, 23} {
		ctx, cancel := context.WithCancel(context.Background())
		inner := &cancelMidBatch{Server: server(t, ds, k), cancel: cancel, serve: cutoff}
		counting := hiddendb.NewCounting(inner)
		quota := hiddendb.NewQuota(counting, budget)
		jnl := journal.New(ds.Schema, k)
		jsrv, err := journal.Wrap(quota, jnl)
		if err != nil {
			t.Fatal(err)
		}

		part, err := (Crawler{Workers: 8}).Crawl(ctx, jsrv, nil)
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
			t.Errorf("cutoff %d: journal %d entries for %d served queries", cutoff, jnl.Len(), paid)
		}
		if spent := budget - quota.Remaining(); spent != paid {
			t.Errorf("cutoff %d: quota debited %d for %d served queries", cutoff, spent, paid)
		}

		// Resume on the same journal: free replays, then exactly the
		// queries the cancellation cut off.
		counting2 := hiddendb.NewCounting(server(t, ds, k))
		jsrv2, err := journal.Wrap(hiddendb.NewQuota(counting2, budget), jnl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (Crawler{Workers: 8}).Crawl(context.Background(), jsrv2, nil)
		if err != nil {
			t.Fatalf("cutoff %d: resume: %v", cutoff, err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatalf("cutoff %d: resumed crawl incomplete", cutoff)
		}
		if paid+counting2.Queries() != ref.Queries {
			t.Errorf("cutoff %d: interrupted %d + resumed %d != reference %d",
				cutoff, paid, counting2.Queries(), ref.Queries)
		}
	}
}

// TestParallelCancelPrompt: a crawl cancelled from outside (no server
// cooperation) drains its workers and returns the ctx error instead of
// hanging — the shutdown path of a long-running server-side crawl.
func TestParallelCancelPrompt(t *testing.T) {
	ds := dataset(t, specs()["mixed"], 23)
	k := 32
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	queries := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := (Crawler{Workers: 8}).Crawl(ctx, server(t, ds, k), &core.Options{
		OnProgress: func(core.CurvePoint) {
			queries++
			if queries == 10 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
