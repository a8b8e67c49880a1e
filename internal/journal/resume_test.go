package journal_test

// The crawl tests run core's crawlers through a journal. They live in the
// external test package because core imports journal for its memo.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hidb/internal/core"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// TestResumeAfterQuota is the package's reason to exist: a crawl that dies
// on a query quota resumes from its journal and completes, paying in total
// exactly what an uninterrupted crawl pays.
func TestResumeAfterQuota(t *testing.T) {
	ds := journal.NewTestDataset(t)
	k := 16

	// Reference: uninterrupted cost.
	ref, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	full, err := (core.Hybrid{}).Crawl(context.Background(), ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted runs: 40 queries per "day".
	jnl := journal.New(ds.Schema, k)
	budget := 40
	sessions := 0
	for {
		sessions++
		if sessions > 100 {
			t.Fatal("resume did not converge")
		}
		srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
		if err != nil {
			t.Fatal(err)
		}
		quotaed := hiddendb.NewQuota(srv, budget)
		wrapped, err := journal.Wrap(quotaed, jnl)
		if err != nil {
			t.Fatal(err)
		}

		// Persist/restore between sessions, as a real crawler would.
		var buf bytes.Buffer
		if _, err := jnl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		jnl, err = journal.ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err = journal.Wrap(quotaed, jnl)
		if err != nil {
			t.Fatal(err)
		}

		res, err := (core.Hybrid{}).Crawl(context.Background(), wrapped, nil)
		if errors.Is(err, hiddendb.ErrQuotaExceeded) {
			continue // next day, fresh budget
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatal("resumed crawl incomplete")
		}
		break
	}

	if sessions < 2 {
		t.Fatalf("test did not exercise resume (budget too big? full cost %d)", full.Queries)
	}
	// Total paid queries across all sessions == journal size == the
	// uninterrupted cost (determinism makes the replay exact).
	if jnl.Len() != full.Queries {
		t.Fatalf("total paid queries %d != uninterrupted cost %d", jnl.Len(), full.Queries)
	}
	t.Logf("completed in %d sessions of %d queries (total %d)", sessions, budget, jnl.Len())
}

func TestReplaysCounted(t *testing.T) {
	ds := journal.NewTestDataset(t)
	srv, _ := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	j := journal.New(ds.Schema, 16)
	w1, err := journal.Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.Hybrid{}).Crawl(context.Background(), w1, nil); err != nil {
		t.Fatal(err)
	}
	paid := j.Len()

	// Second run over the same journal replays everything.
	w2, err := journal.Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.Hybrid{}).Crawl(context.Background(), w2, nil); err != nil {
		t.Fatal(err)
	}
	if j.Len() != paid {
		t.Fatalf("second run paid %d extra queries", j.Len()-paid)
	}
	if w2.Replays() == 0 {
		t.Fatal("second run reported no replays")
	}
}
