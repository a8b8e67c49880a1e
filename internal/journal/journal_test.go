package journal

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/simrand"
)

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          3000,
		CatDomains: []int{4, 9},
		NumRanges:  [][2]int64{{0, 5000}},
		Skew:       0.6,
		DupRate:    0.05,
	}, 23)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// recordMix pays n pseudo-random queries through srv in one batch, so its
// journal records the kind of mix a crawl leaves: wildcards and pinned
// values, closed, half-open and unbounded numeric ranges, and repeats
// (which are replays).
func recordMix(t *testing.T, srv *Server, n int, seed uint64) {
	t.Helper()
	sch := srv.Schema()
	rng := simrand.New(seed)
	qs := make([]dataspace.Query, n)
	for i := range qs {
		q := dataspace.UniverseQuery(sch)
		for a := 0; a < sch.Dims(); a++ {
			attr := sch.Attr(a)
			if attr.Kind == dataspace.Categorical {
				if rng.Bool(0.5) {
					q = q.WithValue(a, rng.IntRange(1, int64(attr.DomainSize)))
				}
				continue
			}
			lo := rng.IntRange(0, 5000)
			switch rng.Intn(4) {
			case 1:
				q = q.WithRange(a, lo, dataspace.PosInf)
			case 2:
				q = q.WithRange(a, dataspace.NegInf, lo)
			case 3:
				q = q.WithRange(a, lo, lo+rng.IntRange(0, 500))
			}
		}
		qs[i] = q
	}
	if _, err := srv.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLookup(t *testing.T) {
	ds := testDataset(t)
	j := New(ds.Schema, 16)
	q := dataspace.UniverseQuery(ds.Schema).WithValue(0, 2)
	if _, ok := j.lookup(q); ok {
		t.Fatal("empty journal answered a query")
	}
	res := hiddendb.Result{Overflow: true, Tuples: ds.Tuples[:3]}
	j.Record(q, res)
	got, ok := j.lookup(q)
	if !ok || got.Overflow != true || len(got.Tuples) != 3 {
		t.Fatal("recorded entry not returned")
	}
	// Re-recording is a no-op.
	j.Record(q, hiddendb.Result{})
	got, _ = j.lookup(q)
	if len(got.Tuples) != 3 {
		t.Fatal("re-record overwrote the entry")
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j.Len())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	ds := testDataset(t)
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	j := New(ds.Schema, 16)
	wrapped, err := Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the journal with a crawl-like mix of queries (wildcards,
	// pins, ranges, ±inf extents).
	recordMix(t, wrapped, 500, 7)
	if j.Len() == 0 {
		t.Fatal("recorded nothing")
	}

	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != j.Len() || back.K() != 16 {
		t.Fatalf("round trip: len %d->%d k=%d", j.Len(), back.Len(), back.K())
	}
	if back.Schema().String() != ds.Schema.String() {
		t.Fatal("schema lost in round trip")
	}
	// Every original entry must replay identically.
	for _, e := range j.log {
		got, ok := back.lookup(e.q)
		if !ok {
			t.Fatalf("entry %s missing after round trip", e.q)
		}
		if got.Overflow != e.res.Overflow || !got.Tuples.EqualMultiset(e.res.Tuples) {
			t.Fatalf("entry %s differs after round trip", e.q)
		}
	}
}

// TestReplayAllocatesNothing pins the journal's zero-copy memo: a lookup
// hit and a Server.Answer replay build the query's key in a pooled buffer
// and look it up without allocating.
func TestReplayAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	ds := testDataset(t)
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	j := New(ds.Schema, 16)
	wrapped, err := Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := dataspace.UniverseQuery(ds.Schema).WithValue(0, 2).WithRange(2, 100, 900)
	if _, err := wrapped.Answer(ctx, q); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := j.lookup(q); !ok {
			t.Fatal("recorded query missed")
		}
	}); n != 0 {
		t.Errorf("Journal lookup hit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := wrapped.Answer(ctx, q); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Server.Answer replay: %v allocs, want 0", n)
	}
	if j.Len() != 1 || wrapped.Replays() != 101 {
		t.Fatalf("journal len %d, replays %d; want 1 and 101", j.Len(), wrapped.Replays())
	}
}

func TestReadFromErrors(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("garbage")); err == nil {
		t.Error("garbage journal accepted")
	}
	// Truncated: header promises entries that never come.
	ds := testDataset(t)
	j := New(ds.Schema, 8)
	j.Record(dataspace.UniverseQuery(ds.Schema), hiddendb.Result{})
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.String()
	trunc = trunc[:strings.Index(trunc, "\n")+1] // keep only the header
	if _, err := ReadFrom(strings.NewReader(trunc)); err == nil {
		t.Error("truncated journal accepted")
	}
}

func TestWrapValidation(t *testing.T) {
	ds := testDataset(t)
	srv, _ := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 1)
	if _, err := Wrap(srv, New(ds.Schema, 8)); err == nil {
		t.Error("k mismatch accepted")
	}
	other := dataspace.MustSchema([]dataspace.Attribute{{Name: "X", Kind: dataspace.Numeric}})
	if _, err := Wrap(srv, New(other, 16)); err == nil {
		t.Error("schema mismatch accepted")
	}
}
