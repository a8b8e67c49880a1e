package journal

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// TestAnswerBatchReplaysAndRecords: journaled queries in a batch are free
// replays, new ones reach the inner server exactly once (repeats within
// the batch included) and are recorded for the next session.
func TestAnswerBatchReplaysAndRecords(t *testing.T) {
	ds := testDataset(t)
	u := dataspace.UniverseQuery(ds.Schema)
	a := u.WithValue(0, 1)
	b := u.WithValue(0, 2)
	c := u.WithValue(0, 3)

	for _, tc := range []struct {
		name    string
		prepaid []dataspace.Query // answered before the batch
		batch   []dataspace.Query
		// paid is the inner server's total, prepaid queries included;
		// replays the batch's; same lists batch positions that must get
		// one answer.
		paid, replays int
		same          [][2]int
	}{
		// One replay (a), two new (b, c), one in-batch repeat (b).
		{name: "journaled+new", prepaid: []dataspace.Query{a}, batch: []dataspace.Query{a, b, c, b},
			paid: 3, replays: 2, same: [][2]int{{1, 3}}},
		// Repeats of fresh queries ride on their first occurrence.
		{name: "in-batch-repeats", batch: []dataspace.Query{a, b, a, a, b, u},
			paid: 3, replays: 3, same: [][2]int{{0, 2}, {0, 3}, {1, 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
			if err != nil {
				t.Fatal(err)
			}
			counting := hiddendb.NewCounting(local)
			j := New(ds.Schema, 16)
			srv, err := Wrap(counting, j)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range tc.prepaid {
				if _, err := srv.Answer(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			res, err := srv.AnswerBatch(context.Background(), tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(tc.batch) {
				t.Fatalf("answered %d of %d", len(res), len(tc.batch))
			}
			if counting.Queries() != tc.paid {
				t.Fatalf("inner saw %d queries, want %d", counting.Queries(), tc.paid)
			}
			if srv.Replays() != tc.replays {
				t.Fatalf("Replays = %d, want %d", srv.Replays(), tc.replays)
			}
			if j.Len() != tc.paid {
				t.Fatalf("journal has %d entries, want %d", j.Len(), tc.paid)
			}
			for _, p := range tc.same {
				x, y := res[p[0]], res[p[1]]
				if x.Overflow != y.Overflow || !x.Tuples.EqualMultiset(y.Tuples) {
					t.Fatalf("repeats at %d and %d answered differently within the batch", p[0], p[1])
				}
			}
			// Re-running the batch is now entirely free.
			if _, err := srv.AnswerBatch(context.Background(), tc.batch); err != nil {
				t.Fatal(err)
			}
			if counting.Queries() != tc.paid {
				t.Fatalf("replayed batch reached the server: %d queries", counting.Queries())
			}
		})
	}
}

// TestAnswerBatchQuotaPrefix: the journal wrapper preserves the
// prefix-on-error contract when the inner server's budget runs out, and a
// resumed batch replays the paid prefix for free.
func TestAnswerBatchQuotaPrefix(t *testing.T) {
	ds := testDataset(t)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	j := New(ds.Schema, 16)
	srv, err := Wrap(hiddendb.NewQuota(local, 2), j)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(ds.Schema)
	qs := []dataspace.Query{u.WithValue(0, 1), u.WithValue(0, 2), u.WithValue(0, 3), u.WithValue(0, 4)}
	res, err := srv.AnswerBatch(context.Background(), qs)
	if err == nil {
		t.Fatal("quota not surfaced")
	}
	if len(res) != 2 {
		t.Fatalf("answered %d, want the 2-query budget", len(res))
	}
	if j.Len() != 2 {
		t.Fatalf("journal recorded %d, want 2", j.Len())
	}
	// Fresh budget + same journal: only the unpaid queries cost anything.
	counting := hiddendb.NewCounting(local)
	srv2, err := Wrap(counting, j)
	if err != nil {
		t.Fatal(err)
	}
	res, err = srv2.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("resumed batch answered %d of 4", len(res))
	}
	if counting.Queries() != 2 {
		t.Fatalf("resumed batch paid %d queries, want 2", counting.Queries())
	}
}

// TestAnswerBatchErrorAccounting: a batch cut short by an inner error
// accounts exactly like sequential issuing — a journaled query positioned
// after the failure is never "answered" and must not count as a replay.
func TestAnswerBatchErrorAccounting(t *testing.T) {
	ds := testDataset(t)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	j := New(ds.Schema, 16)
	srv, err := Wrap(hiddendb.NewQuota(local, 1), j)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(ds.Schema)
	journaled, fresh := u.WithValue(0, 1), u.WithValue(0, 2)
	if _, err := srv.Answer(context.Background(), journaled); err != nil { // spends the whole budget
		t.Fatal(err)
	}
	if srv.Replays() != 0 || j.Len() != 1 {
		t.Fatalf("setup replays/len = %d/%d", srv.Replays(), j.Len())
	}
	res, err := srv.AnswerBatch(context.Background(), []dataspace.Query{fresh, journaled})
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if len(res) != 0 {
		t.Fatalf("answered %d queries on a spent budget, want 0", len(res))
	}
	// Sequentially, Answer(fresh) fails first and journaled is never
	// reached: the counters must not move.
	if srv.Replays() != 0 || j.Len() != 1 {
		t.Fatalf("failed batch moved counters: replays/len = %d/%d, want 0/1", srv.Replays(), j.Len())
	}
}
