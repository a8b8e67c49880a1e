package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// testShared builds a small shared server plus a counting wrapper so tests
// can observe exactly how many queries reached the store.
func testShared(t *testing.T, n, k int) (*hiddendb.Counting, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          n,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	return hiddendb.NewCounting(local), ds
}

// distinctQueries builds n distinct single-value queries.
func distinctQueries(sch *dataspace.Schema, n int) []dataspace.Query {
	qs := make([]dataspace.Query, n)
	for i := range qs {
		lo := int64(i * 3)
		qs[i] = dataspace.UniverseQuery(sch).WithRange(1, lo, lo+2)
	}
	return qs
}

// TestPerTokenIsolation: two tokens draw on separate budgets and journals
// over one shared store.
func TestPerTokenIsolation(t *testing.T) {
	shared, ds := testShared(t, 200, 10)
	tbl := NewTable(shared, Config{Quota: 3})

	a, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct tokens share a session")
	}
	if again, _ := tbl.Get("alice"); again != a {
		t.Fatal("same token resolved to a different session")
	}

	qs := distinctQueries(ds.Schema, 5)
	// Alice exhausts her budget.
	res, err := a.Server().AnswerBatch(context.Background(), qs)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) || len(res) != 3 {
		t.Fatalf("alice: %d results, err=%v; want 3 + quota", len(res), err)
	}
	if a.Queries() != 3 || a.Remaining() != 0 {
		t.Fatalf("alice counters: queries=%d remaining=%d", a.Queries(), a.Remaining())
	}
	// Bob's budget is untouched.
	if b.Queries() != 0 || b.Remaining() != 3 {
		t.Fatalf("bob corrupted by alice: queries=%d remaining=%d", b.Queries(), b.Remaining())
	}
	if _, err := b.Server().Answer(context.Background(), qs[0]); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	// Journals are private too.
	if a.JournalLen() != 3 || b.JournalLen() != 1 {
		t.Fatalf("journal lengths: alice=%d bob=%d, want 3/1", a.JournalLen(), b.JournalLen())
	}
}

// TestReplaysAndHitsAreFree: a query already journaled does not debit the
// budget and does not touch the shared store.
func TestReplaysAndHitsAreFree(t *testing.T) {
	shared, ds := testShared(t, 200, 10)
	tbl := NewTable(shared, Config{Quota: 2})
	sess, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	q := distinctQueries(ds.Schema, 1)[0]
	if _, err := sess.Server().Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	storeBefore := shared.Queries()
	for i := 0; i < 5; i++ {
		if _, err := sess.Server().Answer(context.Background(), q); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if shared.Queries() != storeBefore {
		t.Errorf("repeats reached the store: %d extra", shared.Queries()-storeBefore)
	}
	if sess.Remaining() != 1 {
		t.Errorf("repeats debited the budget: remaining=%d, want 1", sess.Remaining())
	}
	if sess.Queries() != 1 {
		t.Errorf("repeats were counted as paid: %d, want 1", sess.Queries())
	}
	if sess.Replays() == 0 {
		t.Error("no replay recorded for a journaled repeat")
	}
}

// TestTTLEviction: a session idle past the TTL is evicted; the token's
// next request builds a fresh session with a fresh budget, and aggregate
// counters survive the eviction.
func TestTTLEviction(t *testing.T) {
	shared, ds := testShared(t, 200, 10)
	clock := hiddendb.NewSimClock()
	tbl := NewTable(shared, Config{Quota: 2, TTL: time.Hour})
	tbl.clock = clock

	sess, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	qs := distinctQueries(ds.Schema, 3)
	if _, err := sess.Server().AnswerBatch(context.Background(), qs); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("want quota exhaustion, got %v", err)
	}

	// Within the TTL the same (exhausted) session is returned.
	clock.Sleep(context.Background(), 30*time.Minute)
	same, _ := tbl.Get("alice")
	if same != sess {
		t.Fatal("session evicted before its TTL")
	}

	// Past the TTL the budget window has reset.
	clock.Sleep(context.Background(), 2*time.Hour)
	fresh, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == sess {
		t.Fatal("expired session not evicted")
	}
	if fresh.Remaining() != 2 {
		t.Fatalf("fresh session remaining=%d, want a full budget of 2", fresh.Remaining())
	}
	if tbl.Evicted() != 1 {
		t.Fatalf("evicted count %d, want 1", tbl.Evicted())
	}
	if got := tbl.TotalQueries(); got != 2 {
		t.Fatalf("aggregate queries %d after eviction, want the 2 paid", got)
	}
}

// TestTouchKeepsSessionAlive: in-request activity (a long server-side
// crawl touching its session per paid query) refreshes the TTL exactly as
// new requests do, so an actively crawling session is never evicted.
func TestTouchKeepsSessionAlive(t *testing.T) {
	shared, _ := testShared(t, 100, 10)
	clock := hiddendb.NewSimClock()
	tbl := NewTable(shared, Config{TTL: time.Hour})
	tbl.clock = clock

	sess, err := tbl.Get("crawler")
	if err != nil {
		t.Fatal(err)
	}
	// Touch every 45 minutes across a 3-hour "crawl": the session must
	// survive well past its 1-hour idle TTL.
	for i := 0; i < 4; i++ {
		clock.Sleep(context.Background(), 45*time.Minute)
		tbl.Touch("crawler")
	}
	if got, _ := tbl.Get("crawler"); got != sess {
		t.Fatal("actively touched session was evicted")
	}
	// Silence falls: the TTL applies again.
	clock.Sleep(context.Background(), 2*time.Hour)
	if got, _ := tbl.Get("crawler"); got == sess {
		t.Fatal("idle session survived its TTL")
	}
	// Touching an absent token is a no-op, not a create.
	tbl.Touch("ghost")
	if tbl.Len() != 1 {
		t.Fatalf("Touch created a session: %d live", tbl.Len())
	}
}

// TestLRUCap: the table evicts least-recently-used tokens beyond
// MaxSessions.
func TestLRUCap(t *testing.T) {
	shared, _ := testShared(t, 50, 10)
	tbl := NewTable(shared, Config{MaxSessions: 2})
	a, _ := tbl.Get("a")
	if _, err := tbl.Get("b"); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU victim when c arrives.
	if got, _ := tbl.Get("a"); got != a {
		t.Fatal("touch rebuilt the session")
	}
	if _, err := tbl.Get("c"); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 || tbl.Evicted() != 1 {
		t.Fatalf("len=%d evicted=%d, want 2/1", tbl.Len(), tbl.Evicted())
	}
	if got, _ := tbl.Get("a"); got != a {
		t.Error("recently used session was evicted instead of the LRU one")
	}
}

// TestJournalPersistence: an evicted session's journal is reloaded on
// reconnect, and the fresh budget is spent only on new queries.
func TestJournalPersistence(t *testing.T) {
	shared, ds := testShared(t, 200, 10)
	dir := t.TempDir()
	clock := hiddendb.NewSimClock()
	tbl := NewTable(shared, Config{Quota: 3, TTL: time.Hour, JournalDir: dir})
	tbl.clock = clock

	qs := distinctQueries(ds.Schema, 5)
	sess, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Server().AnswerBatch(context.Background(), qs)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) || len(res) != 3 {
		t.Fatalf("first window: %d results, err=%v", len(res), err)
	}
	want := make([]hiddendb.Result, len(res))
	copy(want, res)

	// Next budget window: the journal fast-forwards the first 3 queries
	// for free and the fresh budget pays only for the remaining 2.
	clock.Sleep(context.Background(), 2*time.Hour)
	fresh, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == sess {
		t.Fatal("session survived the TTL")
	}
	if fresh.JournalLen() != 3 {
		t.Fatalf("reloaded journal has %d entries, want 3", fresh.JournalLen())
	}
	storeBefore := shared.Queries()
	res2, err := fresh.Server().AnswerBatch(context.Background(), qs)
	if err != nil || len(res2) != 5 {
		t.Fatalf("second window: %d results, err=%v; want all 5", len(res2), err)
	}
	for i := range want {
		if !res2[i].Tuples.EqualMultiset(want[i].Tuples) || res2[i].Overflow != want[i].Overflow {
			t.Fatalf("replayed response %d differs from the paid one", i)
		}
	}
	if fresh.Queries() != 2 || fresh.Replays() != 3 {
		t.Fatalf("second window paid %d queries with %d replays, want 2/3", fresh.Queries(), fresh.Replays())
	}
	if shared.Queries() != storeBefore+2 {
		t.Fatalf("store saw %d new queries, want 2", shared.Queries()-storeBefore)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("persistence error: %v", err)
	}
}

// TestClosePersistsLiveJournals: Close flushes live sessions' journals so a
// server shutdown loses nothing.
func TestClosePersistsLiveJournals(t *testing.T) {
	shared, ds := testShared(t, 200, 10)
	dir := t.TempDir()
	tbl := NewTable(shared, Config{JournalDir: dir})
	sess, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Server().Answer(context.Background(), distinctQueries(ds.Schema, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("close left %d live sessions", tbl.Len())
	}
	// A second table over the same dir sees the journal.
	tbl2 := NewTable(shared, Config{JournalDir: dir})
	again, err := tbl2.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if again.JournalLen() != 1 {
		t.Fatalf("journal not persisted on Close: len=%d", again.JournalLen())
	}
}

// TestTokenFilenames: tokens with filesystem-hostile characters persist
// without collisions.
func TestTokenFilenames(t *testing.T) {
	shared, ds := testShared(t, 100, 10)
	dir := t.TempDir()
	tbl := NewTable(shared, Config{JournalDir: dir})
	tokens := []string{"", "a/b", "a\\b", "..", "käse?*|", "a b"}
	q := distinctQueries(ds.Schema, 1)[0]
	for _, tok := range tokens {
		sess, err := tbl.Get(tok)
		if err != nil {
			t.Fatalf("token %q: %v", tok, err)
		}
		if _, err := sess.Server().Answer(context.Background(), q); err != nil {
			t.Fatalf("token %q: %v", tok, err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	tbl2 := NewTable(shared, Config{JournalDir: dir})
	for _, tok := range tokens {
		sess, err := tbl2.Get(tok)
		if err != nil {
			t.Fatalf("reload token %q: %v", tok, err)
		}
		if sess.JournalLen() != 1 {
			t.Errorf("token %q journal len %d, want 1", tok, sess.JournalLen())
		}
	}
}

// TestConcurrentGets: many goroutines resolving overlapping tokens get
// exactly one session per token, with batches in flight.
func TestConcurrentGets(t *testing.T) {
	shared, ds := testShared(t, 300, 10)
	tbl := NewTable(shared, Config{Quota: 1000})
	const tokens = 8
	const perToken = 4
	qs := distinctQueries(ds.Schema, 6)

	var wg sync.WaitGroup
	got := make([][]*Session, tokens)
	for i := 0; i < tokens; i++ {
		got[i] = make([]*Session, perToken)
		for g := 0; g < perToken; g++ {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				sess, err := tbl.Get(fmt.Sprintf("tok-%d", i))
				if err != nil {
					t.Error(err)
					return
				}
				got[i][g] = sess
				if _, err := sess.Server().AnswerBatch(context.Background(), qs); err != nil {
					t.Error(err)
				}
			}(i, g)
		}
	}
	wg.Wait()
	for i := 0; i < tokens; i++ {
		for g := 1; g < perToken; g++ {
			if got[i][g] != got[i][0] {
				t.Fatalf("token %d resolved to multiple sessions", i)
			}
		}
		// All goroutines of a token issued the same 6 distinct queries.
		// Concurrent identical batches may each pay before the journal is
		// populated (the batch path does not single-flight across calls),
		// but every distinct query is paid at least once and no more than
		// once per batch.
		if q := got[i][0].Queries(); q < 6 || q > perToken*6 {
			t.Errorf("token %d paid %d queries, want 6..%d", i, q, perToken*6)
		}
	}
	if total := tbl.TotalQueries(); total < tokens*6 {
		t.Errorf("aggregate %d queries, want at least %d", total, tokens*6)
	}
}
