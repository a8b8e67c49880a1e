package hiddendb

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

func testSchema(t *testing.T) *dataspace.Schema {
	t.Helper()
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 4},
		{Name: "N", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
}

func testBag(n int, seed uint64) dataspace.Bag {
	rng := simrand.New(seed)
	bag := make(dataspace.Bag, n)
	for i := range bag {
		bag[i] = dataspace.Tuple{rng.IntRange(1, 4), rng.IntRange(0, 100)}
	}
	return bag
}

func TestLocalResolvedIffSmall(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(500, 1)
	srv, err := NewLocal(sch, bag, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)

	res, err := srv.Answer(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 50 {
		t.Fatalf("universe: overflow=%v len=%d, want true 50", res.Overflow, len(res.Tuples))
	}

	// A query matching <= k tuples must resolve with the exact bag.
	q := u.WithValue(0, 1).WithRange(1, 0, 5)
	want := 0
	for _, tu := range bag {
		if q.Covers(tu) {
			want++
		}
	}
	if want > 50 {
		t.Skip("unlucky seed: narrow query still overflows")
	}
	res, err = srv.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow || len(res.Tuples) != want {
		t.Fatalf("narrow query: overflow=%v len=%d, want false %d", res.Overflow, len(res.Tuples), want)
	}
}

func TestLocalDeterministicResponses(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(300, 2)
	srv, err := NewLocal(sch, bag, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)
	a, err := srv.Answer(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := srv.Answer(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tuples) != len(b.Tuples) || a.Overflow != b.Overflow {
			t.Fatal("repeated query changed shape")
		}
		for i := range a.Tuples {
			if !a.Tuples[i].Equal(b.Tuples[i]) {
				t.Fatal("repeated query returned different tuples — violates the problem setup")
			}
		}
	}
}

func TestLocalSameSeedSameServer(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(300, 3)
	a, _ := NewLocal(sch, bag, 10, 99)
	b, _ := NewLocal(sch, bag, 10, 99)
	u := dataspace.UniverseQuery(sch)
	ra, _ := a.Answer(context.Background(), u)
	rb, _ := b.Answer(context.Background(), u)
	for i := range ra.Tuples {
		if !ra.Tuples[i].Equal(rb.Tuples[i]) {
			t.Fatal("equal seeds produced different priority orders")
		}
	}
	c, _ := NewLocal(sch, bag, 10, 100)
	rc, _ := c.Answer(context.Background(), u)
	same := true
	for i := range ra.Tuples {
		if !ra.Tuples[i].Equal(rc.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Log("warning: different seeds produced identical top-k (possible but unlikely)")
	}
}

func TestLocalRejectsBadK(t *testing.T) {
	if _, err := NewLocal(testSchema(t), nil, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestLocalDumpIsGroundTruth(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(100, 4)
	srv, _ := NewLocal(sch, bag, 10, 5)
	if srv.Size() != 100 {
		t.Fatalf("Size = %d, want 100", srv.Size())
	}
	got, want := contents(srv), RankOrder(bag, 5)
	if len(got) != len(want) {
		t.Fatalf("store holds %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("rank %d: store %v, RankOrder %v", i, got[i], want[i])
		}
	}
}

// contents returns every tuple l serves, in priority order.
func contents(l *Local) []dataspace.Tuple {
	return l.store.Select(dataspace.UniverseQuery(l.Schema()), l.Size())
}

func TestCounting(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 5), 20, 6)
	c := NewCounting(srv)
	u := dataspace.UniverseQuery(sch)

	if _, err := c.Answer(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	narrow := u.WithValue(0, 2).WithRange(1, 0, 2)
	if _, err := c.Answer(context.Background(), narrow); err != nil {
		t.Fatal(err)
	}
	if c.Queries() != 2 {
		t.Fatalf("Queries = %d, want 2", c.Queries())
	}
	if c.Overflowed()+c.Resolved() != 2 {
		t.Fatal("resolved+overflowed != queries")
	}
	if c.K() != 20 || c.Schema() != sch {
		t.Fatal("Counting does not forward K/Schema")
	}
}

func TestQuota(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(100, 9), 10, 10)
	q := NewQuota(srv, 3)
	u := dataspace.UniverseQuery(sch)
	for i := 0; i < 3; i++ {
		if _, err := q.Answer(context.Background(), u); err != nil {
			t.Fatalf("query %d within budget failed: %v", i, err)
		}
	}
	if q.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", q.Remaining())
	}
	if _, err := q.Answer(context.Background(), u); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-budget query: err = %v, want ErrQuotaExceeded", err)
	}
	if q.K() != 10 || q.Schema() != sch {
		t.Fatal("Quota does not forward K/Schema")
	}
}

func TestTopKPriorityConsistency(t *testing.T) {
	// The k tuples returned for a broader query must include every
	// qualifying tuple returned for a narrower one that overflows too —
	// because priorities are global. (This is the property the paper's
	// "same k tuples may always be returned" behaviour rests on.)
	sch := testSchema(t)
	bag := testBag(2000, 11)
	srv, _ := NewLocal(sch, bag, 30, 12)
	broad := dataspace.UniverseQuery(sch)
	rb, _ := srv.Answer(context.Background(), broad)
	if !rb.Overflow {
		t.Skip("universe did not overflow")
	}
	// Narrow to C=1 (still likely overflowing with 2000 tuples).
	narrow := broad.WithValue(0, 1)
	rn, _ := srv.Answer(context.Background(), narrow)
	if !rn.Overflow {
		t.Skip("narrow query did not overflow")
	}
	// Every broad-result tuple with C=1 that ranks in the top 30 of the
	// narrow result must appear there. Check subset relation on the first
	// few: the highest-priority C=1 tuple of the broad response must be
	// the narrow response's first tuple.
	var firstC1 dataspace.Tuple
	for _, tu := range rb.Tuples {
		if tu[0] == 1 {
			firstC1 = tu
			break
		}
	}
	if firstC1 != nil && !rn.Tuples[0].Equal(firstC1) {
		t.Fatal("global priority order violated between broad and narrow queries")
	}
}

func TestResultResolved(t *testing.T) {
	if (Result{Overflow: true}).Resolved() {
		t.Error("overflowing result claims resolved")
	}
	if !(Result{}).Resolved() {
		t.Error("empty result not resolved")
	}
}
