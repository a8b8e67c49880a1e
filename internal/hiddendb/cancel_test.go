package hiddendb

import (
	"context"
	"errors"
	"testing"
	"time"

	"hidb/internal/dataspace"
)

// TestLatencySleepAbortsOnCancel is the shutdown-path regression: a
// Latency wrapper must abandon its simulated delay the moment the ctx is
// cancelled, not block for the full duration. Before the fix a 30s
// simulated round trip held server shutdown hostage for 30s.
func TestLatencySleepAbortsOnCancel(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(100, 50), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	lat := NewLatency(srv, 30*time.Second, Wall)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = lat.Answer(ctx, dataspace.UniverseQuery(sch))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Answer blocked %v — the sleep ignored the ctx", elapsed)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	start = time.Now()
	if _, err := lat.AnswerBatch(ctx2, []dataspace.Query{dataspace.UniverseQuery(sch)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled AnswerBatch blocked %v", elapsed)
	}
}

// TestQuotaRefundsCancelledQuery: a query aborted by cancellation never
// reached the server and must not consume budget, while a server-rejected
// query stays debited — the distinction that keeps the budget equal to
// the queries actually served after an abort.
func TestQuotaRefundsCancelledQuery(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(100, 51), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	quota := NewQuota(srv, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := quota.Answer(ctx, dataspace.UniverseQuery(sch)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if quota.Remaining() != 5 {
		t.Fatalf("cancelled query consumed budget: %d remaining, want 5", quota.Remaining())
	}
	// A batch cut short by cancellation refunds every unserved query.
	qs := batchQueries(sch, 4, 60)
	if _, err := quota.AnswerBatch(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if quota.Remaining() != 5 {
		t.Fatalf("cancelled batch consumed budget: %d remaining, want 5", quota.Remaining())
	}
	// Sanity: a live ctx serves and debits normally.
	if _, err := quota.Answer(context.Background(), dataspace.UniverseQuery(sch)); err != nil {
		t.Fatal(err)
	}
	if quota.Remaining() != 4 {
		t.Fatalf("served query not debited: %d remaining, want 4", quota.Remaining())
	}
}

// TestLocalBatchCancelledPrefix: a Local server whose batch is cancelled
// mid-evaluation returns a contiguous answered prefix plus the ctx error,
// and the prefix responses are bit-identical to live answers.
func TestLocalBatchCancelledPrefix(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocalSharded(sch, testBag(500, 52), 10, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries(sch, 8, 61)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := srv.AnswerBatch(ctx, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		want, werr := srv.Answer(context.Background(), qs[i])
		if werr != nil {
			t.Fatal(werr)
		}
		if !sameResult(r, want) {
			t.Fatalf("cancelled-batch prefix result %d differs from a live Answer", i)
		}
	}
}
