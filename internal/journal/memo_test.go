package journal

import (
	"context"
	"sync"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/simrand"
)

// repeatQueries builds a query stream with many repeats, the shape a
// crawl's ready queue produces, over testDataset's schema.
func repeatQueries(sch *dataspace.Schema, n int, seed uint64) []dataspace.Query {
	rng := simrand.New(seed)
	qs := make([]dataspace.Query, n)
	for i := range qs {
		q := dataspace.UniverseQuery(sch)
		if rng.Bool(0.6) {
			q = q.WithValue(0, rng.IntRange(1, 4))
		}
		if rng.Bool(0.6) {
			lo := rng.IntRange(0, 80)
			q = q.WithRange(2, lo, lo+rng.IntRange(0, 20))
		}
		qs[i] = q
	}
	return qs
}

// memoStack is the memo every stack uses: a journal over a counter over
// testDataset's server.
func memoStack(t *testing.T) (*dataspace.Schema, *hiddendb.Counting, *Journal, *Server) {
	t.Helper()
	ds := testDataset(t)
	local, err := hiddendb.NewLocalSharded(ds.Schema, ds.Tuples, 16, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	counting := hiddendb.NewCounting(local)
	j := New(ds.Schema, 16)
	srv, err := Wrap(counting, j)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Schema, counting, j, srv
}

// TestAnswerDedupes: repeats of a query are replays, and semantically
// equal queries built separately share one memo key.
func TestAnswerDedupes(t *testing.T) {
	sch, counting, _, srv := memoStack(t)
	ctx := context.Background()
	u := dataspace.UniverseQuery(sch)

	r1, _ := srv.Answer(ctx, u)
	r2, _ := srv.Answer(ctx, u)
	r3, _ := srv.Answer(ctx, u)
	if counting.Queries() != 1 {
		t.Fatalf("inner saw %d queries, want 1", counting.Queries())
	}
	if srv.Replays() != 2 {
		t.Fatalf("Replays = %d, want 2", srv.Replays())
	}
	if len(r1.Tuples) != len(r2.Tuples) || len(r2.Tuples) != len(r3.Tuples) {
		t.Fatal("replays returned different responses")
	}

	q1 := u.WithValue(0, 3)
	q2 := dataspace.UniverseQuery(sch).WithValue(0, 3)
	srv.Answer(ctx, q1)
	srv.Answer(ctx, q2)
	if counting.Queries() != 2 {
		t.Fatalf("equal queries not deduped: inner saw %d", counting.Queries())
	}
	if srv.K() != 16 || srv.Schema() != sch {
		t.Fatal("Server does not forward K/Schema")
	}
}

// TestReplayPaidAccounting: over a randomized stream with many repeats,
// every distinct query is paid and journaled exactly once and every
// repeat is a replay.
func TestReplayPaidAccounting(t *testing.T) {
	sch, counting, j, srv := memoStack(t)
	issued := 0
	distinct := map[string]bool{}
	for _, q := range repeatQueries(sch, 400, 13) {
		if _, err := srv.Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		issued++
		distinct[q.Key()] = true
	}
	if srv.Replays()+j.Len() != issued {
		t.Fatalf("Replays(%d) + Len(%d) != %d issued", srv.Replays(), j.Len(), issued)
	}
	if j.Len() != len(distinct) {
		t.Fatalf("Len = %d, want %d (one per distinct canonical key)", j.Len(), len(distinct))
	}
	if counting.Queries() != j.Len() {
		t.Fatalf("inner server saw %d queries, want Len() = %d", counting.Queries(), j.Len())
	}
}

// TestCountingJournalConcurrent hammers the memo stack from many
// goroutines mixing Answer and AnswerBatch; under -race this is the
// concurrency-safety proof. Both paths single-flight through one flight,
// so every distinct query is paid exactly once however the asks race.
func TestCountingJournalConcurrent(t *testing.T) {
	sch, counting, j, srv := memoStack(t)
	const goroutines = 8
	var wg sync.WaitGroup
	var issued sync.Map // key -> true, the distinct queries sent
	total := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := repeatQueries(sch, 120, 40+uint64(g)%4) // overlapping streams
			for _, q := range qs {
				issued.Store(q.Key(), true)
			}
			for i := 0; i < len(qs); i += 6 {
				if i%2 == 0 {
					if _, err := srv.AnswerBatch(context.Background(), qs[i:i+6]); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				} else {
					for _, q := range qs[i : i+6] {
						if _, err := srv.Answer(context.Background(), q); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
					}
				}
				total[g] += 6
			}
		}(g)
	}
	wg.Wait()

	sum := 0
	for _, n := range total {
		sum += n
	}
	if got := srv.Replays() + j.Len(); got != sum {
		t.Fatalf("replays+len = %d, want %d issued", got, sum)
	}
	distinct := 0
	issued.Range(func(_, _ any) bool { distinct++; return true })
	if counting.Queries() != j.Len() || j.Len() != distinct {
		t.Fatalf("inner queries %d, journal %d, distinct %d: want all equal", counting.Queries(), j.Len(), distinct)
	}
}
