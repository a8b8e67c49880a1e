package hiddendb

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/dataspace"
)

// flakyQueries builds distinct valid queries over the simTestServer schema.
func flakyQueries(schema *dataspace.Schema, n int) []dataspace.Query {
	qs := make([]dataspace.Query, n)
	for i := range qs {
		qs[i] = dataspace.UniverseQuery(schema).WithValue(0, int64(1+i%6))
		if i >= 6 {
			lo := int64(i * 10)
			qs[i] = qs[i].WithRange(1, lo, lo+5)
		}
	}
	return qs
}

// TestFlakyFailNth: every nth attempt fails with ErrInjected, at exactly
// the position a sequential caller would observe, across Answer and
// AnswerBatch alike.
func TestFlakyFailNth(t *testing.T) {
	srv, schema := simTestServer(t, 200, 20)
	counting := NewCounting(srv)
	flaky := NewFlaky(counting, FlakyConfig{FailNth: 3})
	qs := flakyQueries(schema, 8)

	// Attempts 1,2 succeed; attempt 3 faults.
	for i := 0; i < 2; i++ {
		if _, err := flaky.Answer(context.Background(), qs[i]); err != nil {
			t.Fatalf("attempt %d: %v", i+1, err)
		}
	}
	if _, err := flaky.Answer(context.Background(), qs[2]); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 3: err = %v, want ErrInjected", err)
	}
	if counting.Queries() != 2 {
		t.Fatalf("inner server saw %d queries, want 2 (the fault must not be served)", counting.Queries())
	}

	// A batch spanning the next fault (attempts 4,5,6) is cut at the
	// answered prefix: two served, the third faulted.
	res, err := flaky.AnswerBatch(context.Background(), qs[3:8])
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("batch err = %v, want ErrInjected", err)
	}
	if len(res) != 2 {
		t.Fatalf("batch answered %d queries, want the 2-query prefix", len(res))
	}
	if counting.Queries() != 4 {
		t.Fatalf("inner server saw %d queries, want 4", counting.Queries())
	}
	// Queries beyond the fault were never attempted: the counter resumes
	// right after the faulted position.
	if got := flaky.attempts; got != 6 {
		t.Fatalf("attempts = %d, want 6", got)
	}
	if got := FlakyInjected(flaky); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
	if flaky.K() != srv.K() || flaky.Schema() != srv.Schema() {
		t.Fatal("Flaky does not forward K/Schema")
	}
}

// TestFlakyAbortWindow: faults inside the abort window read as context
// cancellation — Cancelled(err) holds — so a Quota above the flaky layer
// refunds them and budget agrees with queries served.
func TestFlakyAbortWindow(t *testing.T) {
	srv, schema := simTestServer(t, 200, 20)
	counting := NewCounting(srv)
	flaky := NewFlaky(counting, FlakyConfig{AbortFrom: 2, AbortUntil: 4})
	const budget = 100
	quota := NewQuota(flaky, budget)
	qs := flakyQueries(schema, 8)

	// Attempts 0,1 succeed.
	if _, err := quota.AnswerBatch(context.Background(), qs[:2]); err != nil {
		t.Fatal(err)
	}
	// Attempts 2,3 are aborts; the batch 2..6 cuts at an empty prefix.
	res, err := quota.AnswerBatch(context.Background(), qs[2:6])
	if !Cancelled(err) {
		t.Fatalf("abort-window err = %v, want a cancellation", err)
	}
	if len(res) != 0 {
		t.Fatalf("aborted batch answered %d queries", len(res))
	}
	// Cancelled queries are refunded in full: spent equals served.
	if spent := budget - quota.Remaining(); spent != counting.Queries() {
		t.Fatalf("quota spent %d, server served %d — abort was charged", spent, counting.Queries())
	}
	// Attempt 3 is the window's second abort (single-query path).
	if _, err := quota.Answer(context.Background(), qs[6]); !Cancelled(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if spent := budget - quota.Remaining(); spent != counting.Queries() {
		t.Fatalf("quota spent %d, server served %d after single abort", spent, counting.Queries())
	}
	// Past the window, queries flow again.
	if _, err := quota.AnswerBatch(context.Background(), qs[4:8]); err != nil {
		t.Fatalf("past the abort window: %v", err)
	}
	if spent := budget - quota.Remaining(); spent != counting.Queries() {
		t.Fatalf("final: quota spent %d, server served %d", spent, counting.Queries())
	}
}

// TestFlakyTransientDebited pins the documented Quota semantics for
// non-cancellation faults below the quota: the failing query stays debited
// (the site saw the request), the queries beyond it are refunded.
func TestFlakyTransientDebited(t *testing.T) {
	srv, schema := simTestServer(t, 200, 20)
	counting := NewCounting(srv)
	flaky := NewFlaky(counting, FlakyConfig{FailNth: 3})
	const budget = 100
	quota := NewQuota(flaky, budget)
	qs := flakyQueries(schema, 6)

	res, err := quota.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if len(res) != 2 {
		t.Fatalf("answered prefix %d, want 2", len(res))
	}
	served := counting.Queries()
	if served != 2 {
		t.Fatalf("served %d, want 2", served)
	}
	if spent := budget - quota.Remaining(); spent != served+1 {
		t.Fatalf("quota spent %d for %d served + 1 rejected, want %d", spent, served, served+1)
	}
}

// TestFlakyProbSeeded: probabilistic faults are a pure function of the
// seed — two servers with equal seeds inject identical fault streams, a
// different seed a different one.
func TestFlakyProbSeeded(t *testing.T) {
	_, schema := simTestServer(t, 100, 10)
	run := func(seed uint64) []bool {
		srv, _ := simTestServer(t, 100, 10)
		flaky := NewFlaky(srv, FlakyConfig{Seed: seed, FailProb: 0.3})
		qs := flakyQueries(schema, 40)
		out := make([]bool, len(qs))
		for i, q := range qs {
			_, err := flaky.Answer(context.Background(), q)
			out[i] = err != nil
		}
		return out
	}
	a, b, c := run(11), run(11), run(13)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	faults, diff := 0, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverged at attempt %d", i)
		}
		if a[i] {
			faults++
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("FailProb=0.3 injected %d/%d faults — not probabilistic", faults, len(a))
	}
	if !diff {
		t.Fatal("distinct seeds produced identical fault streams")
	}
}

// TestFlakyInnerErrorWins: when the inner server fails before the injected
// fault's position is reached, the inner (shorter) answered prefix and
// error are returned untouched.
func TestFlakyInnerErrorWins(t *testing.T) {
	srv, schema := simTestServer(t, 200, 20)
	quota := NewQuota(srv, 2)
	flaky := NewFlaky(quota, FlakyConfig{FailNth: 5}) // fault would land at attempt 5
	qs := flakyQueries(schema, 4)

	res, err := flaky.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want the inner quota error", err)
	}
	if len(res) != 2 {
		t.Fatalf("answered prefix %d, want the quota's 2", len(res))
	}
}
