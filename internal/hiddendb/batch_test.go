package hiddendb

import (
	"context"
	"errors"
	"testing"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// batchQueries builds a query stream with repeats, the shape a crawl's
// ready queue produces.
func batchQueries(sch *dataspace.Schema, n int, seed uint64) []dataspace.Query {
	rng := simrand.New(seed)
	qs := make([]dataspace.Query, n)
	for i := range qs {
		q := dataspace.UniverseQuery(sch)
		if rng.Bool(0.6) {
			q = q.WithValue(0, rng.IntRange(1, 4))
		}
		if rng.Bool(0.6) {
			lo := rng.IntRange(0, 80)
			q = q.WithRange(1, lo, lo+rng.IntRange(0, 20))
		}
		qs[i] = q
	}
	return qs
}

func sameResult(a, b Result) bool {
	if a.Overflow != b.Overflow || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// TestShardedLocalIdenticalToLocal pins that sharding is invisible in the
// responses: same (bag, k, seed) means bit-identical answers.
func TestShardedLocalIdenticalToLocal(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(1500, 23)
	plain, err := NewLocal(sch, bag, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewLocalSharded(sch, bag, 30, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards() != 1 || sharded.Shards() != 7 {
		t.Fatalf("Shards() = %d/%d, want 1/7", plain.Shards(), sharded.Shards())
	}
	for i, q := range batchQueries(sch, 100, 24) {
		a, _ := plain.Answer(context.Background(), q)
		b, _ := sharded.Answer(context.Background(), q)
		if !sameResult(a, b) {
			t.Fatalf("query %d: sharded response differs from plain (query %s)", i, q)
		}
	}
	if !plain.Dump().EqualMultiset(sharded.Dump()) {
		t.Fatal("sharded Dump differs")
	}
}

// TestLocalBatchInvalidQuery: an invalid query fails the batch at its
// position, answering the prefix before it — the sequential semantics.
func TestLocalBatchInvalidQuery(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(200, 25), 10, 3)
	// A second schema instance defeats the fast pointer check so the bad
	// value is actually validated, as a foreign client's query would be.
	foreign := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 4},
		{Name: "N", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
	good := dataspace.UniverseQuery(foreign)
	bad := good.WithValue(0, 99) // outside the domain [1,4]
	res, err := srv.AnswerBatch(context.Background(), []dataspace.Query{good, good, bad, good})
	if err == nil {
		t.Fatal("invalid query in batch not reported")
	}
	if len(res) != 2 {
		t.Fatalf("batch answered %d queries before the invalid one, want 2", len(res))
	}
}

// TestQuotaBatchMidExhaustion is the quota-mid-batch contract: the admitted
// prefix is answered, the error is ErrQuotaExceeded, and the budget ends up
// exactly spent.
func TestQuotaBatchMidExhaustion(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(300, 27), 10, 4)
	counting := NewCounting(srv)
	quota := NewQuota(counting, 5)
	qs := batchQueries(sch, 8, 28)

	res, err := quota.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if len(res) != 5 {
		t.Fatalf("answered %d queries, want the 5-query budget", len(res))
	}
	if quota.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", quota.Remaining())
	}
	if counting.Queries() != 5 {
		t.Fatalf("inner server saw %d queries, want 5", counting.Queries())
	}
	// A spent budget rejects the next batch outright.
	if _, err := quota.AnswerBatch(context.Background(), qs[:2]); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("spent quota answered another batch: %v", err)
	}
	// And an empty batch is free.
	if res, err := quota.AnswerBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %d", err, len(res))
	}
}

// TestCountingBatch: a B-query batch counts as B queries — the cost metric
// is batching-invariant.
func TestCountingBatch(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 29), 20, 6)
	c := NewCounting(srv)
	qs := batchQueries(sch, 17, 30)
	if _, err := c.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if c.Queries() != 17 {
		t.Fatalf("Queries = %d, want 17", c.Queries())
	}
	if c.Resolved()+c.Overflowed() != 17 {
		t.Fatal("resolved+overflowed != queries")
	}
}

// TestLatencyBatchIsOneRoundTrip: B batched queries pay the delay once.
func TestLatencyBatchIsOneRoundTrip(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(200, 33), 20, 8)
	delay := 40 * time.Millisecond
	lat := NewLatency(srv, delay, Wall)
	qs := batchQueries(sch, 10, 34)
	start := time.Now()
	if _, err := lat.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*delay {
		t.Fatalf("10-query batch took %v — paying per-query latency, not per-round-trip", elapsed)
	}
}
