package session

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// TestFleetOracle is the tentpole's machine check: M concurrent tokens
// crawling the same store through the SharedFree tier together pay exactly
// one solo crawl's query count — knowledge is bought once and serves the
// fleet — while every token's own counter, quota and journal agree with
// each other, and each token's journal replays its crawl for free on
// resume.
func TestFleetOracle(t *testing.T) {
	for _, m := range []int{2, 8, 32} {
		t.Run(fmt.Sprintf("M=%d", m), func(t *testing.T) {
			store, ds := testShared(t, 200, 10)
			// Solo reference: the paper-mode cost of one complete crawl.
			ref, err := (core.Hybrid{}).Crawl(context.Background(), store, nil)
			if err != nil {
				t.Fatal(err)
			}
			refPaid := store.Queries()
			if refPaid != ref.Queries {
				t.Fatalf("reference disagrees with its own counter: %d vs %d", ref.Queries, refPaid)
			}

			fleetStore, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
			if err != nil {
				t.Fatal(err)
			}
			counting := hiddendb.NewCounting(fleetStore)
			quota := refPaid + 1 // ample for any single token, tight enough to detect leaks
			tbl := NewTable(counting, Config{
				Quota:       quota,
				SharedCache: hiddendb.SharedFree,
				JournalDir:  t.TempDir(),
			})

			var wg sync.WaitGroup
			results := make([]*core.Result, m)
			for i := 0; i < m; i++ {
				sess, err := tbl.Get(fmt.Sprintf("tok-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, srv hiddendb.Server) {
					defer wg.Done()
					res, err := (core.Hybrid{}).Crawl(context.Background(), srv, nil)
					if err != nil {
						t.Errorf("token %d crawl: %v", i, err)
						return
					}
					results[i] = res
				}(i, sess.Server())
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// The fleet invariant: the store was paid exactly one crawl's
			// cost, no matter how many tokens crawled (<= 1.05x is the
			// acceptance bound; single-flight over a permanent cache makes
			// it exact).
			if got := counting.Queries(); got != refPaid {
				t.Fatalf("fleet of %d paid the store %d queries, want exactly the solo reference %d", m, got, refPaid)
			}

			// Per-token agreement: counter vs quota vs journal, and the
			// crawl results themselves.
			totalPaid, jlen0 := 0, -1
			for i := 0; i < m; i++ {
				if len(results[i].Tuples) != len(ref.Tuples) {
					t.Fatalf("token %d extracted %d tuples, want %d", i, len(results[i].Tuples), len(ref.Tuples))
				}
				sess, err := tbl.Get(fmt.Sprintf("tok-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				paid := sess.Queries()
				totalPaid += paid
				if want := quota - paid; sess.Remaining() != want {
					t.Fatalf("token %d: counter says %d paid but quota has %d remaining of %d", i, paid, sess.Remaining(), quota)
				}
				// Every answer the crawl consumed — led, shared, or private —
				// is journaled; the ask sequence is deterministic, so every
				// token's journal has identical length.
				if jlen0 < 0 {
					jlen0 = sess.JournalLen()
				} else if sess.JournalLen() != jlen0 {
					t.Fatalf("token %d journaled %d pairs, token 0 journaled %d", i, sess.JournalLen(), jlen0)
				}
				// Paid + shared = the queries that reached below the private
				// memo; a query is never both.
				if paid != sess.SharedLeads() {
					t.Fatalf("token %d: %d paid but %d leads — a paid query must be a lead under SharedFree", i, paid, sess.SharedLeads())
				}
			}
			// Each of the reference's queries was led (paid) by exactly one
			// token.
			if totalPaid != refPaid {
				t.Fatalf("tokens' counters sum to %d, want %d — some query was paid twice or not charged", totalPaid, refPaid)
			}

			// Resume: persist every journal, rebuild the table (fresh,
			// empty shared tier), re-crawl each token — the journal replays
			// everything, so nobody pays anything.
			dir := tbl.cfg.JournalDir
			if err := tbl.Close(); err != nil {
				t.Fatal(err)
			}
			counting2 := hiddendb.NewCounting(fleetStore)
			tbl2 := NewTable(counting2, Config{
				Quota:       quota,
				SharedCache: hiddendb.SharedFree,
				JournalDir:  dir,
			})
			for i := 0; i < m; i++ {
				sess, err := tbl2.Get(fmt.Sprintf("tok-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				res, err := (core.Hybrid{}).Crawl(context.Background(), sess.Server(), nil)
				if err != nil {
					t.Fatalf("token %d resume: %v", i, err)
				}
				if len(res.Tuples) != len(ref.Tuples) {
					t.Fatalf("token %d resume extracted %d tuples, want %d", i, len(res.Tuples), len(ref.Tuples))
				}
				if sess.Queries() != 0 {
					t.Fatalf("token %d paid %d on resume, want 0 — journal must replay the whole crawl", i, sess.Queries())
				}
			}
			if counting2.Queries() != 0 {
				t.Fatalf("store paid %d on resume, want 0", counting2.Queries())
			}
		})
	}
}

// TestFleetChargedAccounting: under SharedCharged a shared hit saves the
// store's work but still debits the asking token — the paper's per-client
// costs preserved while the fleet shares compute.
func TestFleetChargedAccounting(t *testing.T) {
	store, ds := testShared(t, 200, 10)
	tbl := NewTable(store, Config{Quota: 50, SharedCache: hiddendb.SharedCharged})
	qs := distinctQueries(ds.Schema, 10)

	a, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Server().AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	b, err := tbl.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server().AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}

	// Both tokens are charged in full...
	if a.Queries() != 10 || b.Queries() != 10 {
		t.Fatalf("charged mode: alice paid %d, bob paid %d, want 10 each", a.Queries(), b.Queries())
	}
	if a.Remaining() != 40 || b.Remaining() != 40 {
		t.Fatalf("charged mode: remaining %d/%d, want 40/40", a.Remaining(), b.Remaining())
	}
	// ...but the store answered each distinct query once.
	if store.Queries() != 10 {
		t.Fatalf("store answered %d, want 10 — bob's asks must come from the tier", store.Queries())
	}
	if b.SharedHits()+b.SharedWaits() != 10 {
		t.Fatalf("bob's shared hits+waits = %d, want 10", b.SharedHits()+b.SharedWaits())
	}
}

// TestFleetOffIsPaperMode: the default policy builds no tier and surfaces
// no counters — the bit-identical paper-mode stack.
func TestFleetOffIsPaperMode(t *testing.T) {
	store, ds := testShared(t, 100, 10)
	tbl := NewTable(store, Config{Quota: 10})
	if tbl.SharedCache() != nil {
		t.Fatal("paper mode built a shared tier")
	}
	sess, err := tbl.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Server().AnswerBatch(context.Background(), distinctQueries(ds.Schema, 3)); err != nil {
		t.Fatal(err)
	}
	st := sess.stats()
	if st.SharedHits != 0 || st.SharedWaits != 0 || st.SharedLeads != 0 {
		t.Fatalf("paper-mode stats carry shared counters: %+v", st)
	}
	if sess.Queries() != 3 {
		t.Fatalf("paid %d, want 3", sess.Queries())
	}
}

// gatedStore blocks the first call that reaches it until released, so a
// test can hold a leader mid-fetch while it rearranges the world around it.
// With fail set, that first call then fails with it.
type gatedStore struct {
	hiddendb.Server
	once    sync.Once
	entered chan struct{}
	release chan struct{}
	fail    error
}

func (g *gatedStore) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, g, q)
}

func (g *gatedStore) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	gate := false
	g.once.Do(func() { gate = true })
	if gate {
		close(g.entered)
		<-g.release
		if g.fail != nil {
			return nil, g.fail
		}
	}
	return g.Server.AnswerBatch(ctx, qs)
}

// waitSignal is a context that reports the first time a caller selects on
// its Done channel, which the fleet tier's flight does only to wait on
// another session's lead.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestFleetBatchStopsAtFailedWait: a SharedFree batch [w, l] whose w is
// led by another session pays nothing past w until w resolves. The leader
// of w fails, so the batch leads w itself with its one query of budget and
// gets [w] plus ErrQuotaExceeded, as asking w then l would. Its counter,
// quota and journal each account for w alone; paying l before the wait
// resolved would charge a query the journal never records.
func TestFleetBatchStopsAtFailedWait(t *testing.T) {
	store, ds := testShared(t, 200, 10)
	gated := &gatedStore{
		Server:  store,
		entered: make(chan struct{}),
		release: make(chan struct{}),
		fail:    errors.New("leader failed"),
	}
	tbl := NewTable(gated, Config{Quota: 1, SharedCache: hiddendb.SharedFree})
	qs := distinctQueries(ds.Schema, 2)
	w, l := qs[0], qs[1]

	leader, err := tbl.Get("leader")
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := leader.Server().Answer(context.Background(), w)
		leaderDone <- err
	}()
	<-gated.entered // the leader holds w inside the store

	follower, err := tbl.Get("follower")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
	type answer struct {
		res []hiddendb.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := follower.Server().AnswerBatch(ctx, []dataspace.Query{w, l})
		done <- answer{res, err}
	}()
	<-ctx.waiting // the follower waits on the leader's w
	close(gated.release)
	if err := <-leaderDone; err == nil {
		t.Fatal("the gated leader succeeded; want its failure")
	}
	var got answer
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower's batch never finished")
	}
	if len(got.res) != 1 || !errors.Is(got.err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("batch answered %d with %v; want [w] and ErrQuotaExceeded", len(got.res), got.err)
	}
	if want, _ := store.Answer(context.Background(), w); !reflect.DeepEqual(got.res[0], want) {
		t.Fatal("the follower's answer to w is not the store's")
	}
	if q, j, r := follower.Queries(), follower.JournalLen(), follower.Remaining(); q != 1 || j != 1 || r != 0 {
		t.Fatalf("follower counter %d, journal %d, remaining %d; want 1, 1, 0", q, j, r)
	}
}

// TestFleetEvictionMidFlight: a leader whose session is evicted (LRU
// pressure) while its fetch is in flight neither deadlocks its followers
// nor loses the answer — the fetch completes on the evicted stack, the
// tier publishes it, and every waiting follower reads it without paying.
func TestFleetEvictionMidFlight(t *testing.T) {
	store, ds := testShared(t, 200, 10)
	gated := &gatedStore{
		Server:  store,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	tbl := NewTable(gated, Config{SharedCache: hiddendb.SharedFree, MaxSessions: 1})
	q := distinctQueries(ds.Schema, 1)[0]

	leader, err := tbl.Get("leader")
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := leader.Server().Answer(context.Background(), q)
		leaderDone <- err
	}()
	<-gated.entered // the leader is now mid-fetch inside the store

	// A second token arrives; MaxSessions=1 evicts the leader's session.
	follower, err := tbl.Get("follower")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Has("leader") {
		t.Fatal("leader session survived the LRU cap")
	}
	followerDone := make(chan error, 1)
	go func() {
		_, err := follower.Server().Answer(context.Background(), q)
		followerDone <- err
	}()

	// Both are parked: the leader inside the gated store, the follower on
	// the tier's in-flight entry. Release the gate; both must finish.
	close(gated.release)
	for name, ch := range map[string]chan error{"leader": leaderDone, "follower": followerDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s deadlocked after the leader's eviction", name)
		}
	}
	// The evicted leader's fetch was published: the store answered once.
	if store.Queries() != 1 {
		t.Fatalf("store paid %d, want 1 — the follower must ride the evicted leader's fetch", store.Queries())
	}
	if tbl.SharedCache().Entries() != 1 {
		t.Fatalf("tier holds %d entries, want the evicted leader's 1", tbl.SharedCache().Entries())
	}
}

// TestFleetQuotaStarvedLeaderHandsOver: a leader whose budget dies
// mid-lead fails alone; the key is not poisoned and the next asker with
// budget leads it successfully.
func TestFleetQuotaStarvedLeaderHandsOver(t *testing.T) {
	store, ds := testShared(t, 200, 10)
	tbl := NewTable(store, Config{Quota: 1, SharedCache: hiddendb.SharedFree})
	qs := distinctQueries(ds.Schema, 2)

	poor, err := tbl.Get("poor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poor.Server().Answer(context.Background(), qs[0]); err != nil {
		t.Fatal(err) // spends poor's whole budget
	}
	if _, err := poor.Server().Answer(context.Background(), qs[1]); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// The failed lead published nothing and poisoned nothing.
	if got := tbl.SharedCache().Entries(); got != 1 {
		t.Fatalf("tier holds %d entries after a starved lead, want 1", got)
	}
	rich, err := tbl.Get("rich")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rich.Server().Answer(context.Background(), qs[1]); err != nil {
		t.Fatalf("successor lead: %v", err)
	}
	// rich paid only the query poor could not: qs[0] came from the tier.
	if _, err := rich.Server().Answer(context.Background(), qs[0]); err != nil {
		t.Fatal(err)
	}
	if rich.Queries() != 1 || rich.SharedHits() != 1 {
		t.Fatalf("rich paid %d with %d shared hits, want 1 and 1", rich.Queries(), rich.SharedHits())
	}
}
