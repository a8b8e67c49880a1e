package httpclient

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/simrand"
)

func clientBatch(sch *dataspace.Schema, n int, seed uint64) []dataspace.Query {
	rng := simrand.New(seed)
	qs := make([]dataspace.Query, n)
	for i := range qs {
		q := dataspace.UniverseQuery(sch)
		if rng.Bool(0.5) {
			q = q.WithValue(0, rng.IntRange(1, 4))
		}
		if rng.Bool(0.5) {
			q = q.WithValue(1, rng.IntRange(1, 9))
		}
		if rng.Bool(0.7) {
			lo := rng.IntRange(0, 4500)
			q = q.WithRange(2, lo, lo+rng.IntRange(0, 500))
		}
		qs[i] = q
	}
	return qs
}

// TestAnswerBatchMatchesAnswer: one /batch round trip returns exactly what
// N /query round trips do.
func TestAnswerBatchMatchesAnswer(t *testing.T) {
	ds := mixedDataset(t, 800)
	ts, _ := startServer(t, ds, 16, 0)
	c, err := Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := clientBatch(c.Schema(), 20, 61)
	want := make([]hiddendb.Result, len(qs))
	for i, q := range qs {
		want[i], err = c.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("batch answered %d of %d", len(got), len(qs))
	}
	for i := range got {
		if got[i].Overflow != want[i].Overflow || len(got[i].Tuples) != len(want[i].Tuples) {
			t.Fatalf("batch result %d diverges from single round trips", i)
		}
		for j := range got[i].Tuples {
			if !got[i].Tuples[j].Equal(want[i].Tuples[j]) {
				t.Fatalf("batch result %d tuple %d differs", i, j)
			}
		}
	}
	// An empty batch never touches the network.
	if res, err := c.AnswerBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %d", err, len(res))
	}
}

// TestAnswerBatchQuotaPrefix: a server-side quota cuts the batch to the
// affordable prefix and surfaces the typed error.
func TestAnswerBatchQuotaPrefix(t *testing.T) {
	ds := mixedDataset(t, 500)
	ts, _ := startServer(t, ds, 16, 6)
	c, err := Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := clientBatch(c.Schema(), 10, 63)
	res, err := c.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if len(res) != 6 {
		t.Fatalf("answered %d queries, want the 6-query budget", len(res))
	}
	// Spent budget: a next batch of unpaid queries fails outright with the
	// typed error, while the paid prefix still replays for free.
	if _, err := c.AnswerBatch(context.Background(), qs[6:8]); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("post-budget batch err = %v", err)
	}
	if res, err := c.AnswerBatch(context.Background(), qs[:2]); err != nil || len(res) != 2 {
		t.Fatalf("replaying the paid prefix: %d results, err %v", len(res), err)
	}
}
