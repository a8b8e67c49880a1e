package httpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// sessionHandler builds a per-session handler over a fresh random dataset.
func sessionHandler(t testing.TB, n, k int, cfg session.Config) (*Handler, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          n,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	return New(srv, WithSessions(cfg)), ds
}

// distinctBatch builds n distinct numeric-range queries.
func distinctBatch(sch *dataspace.Schema, n int) []dataspace.Query {
	qs := make([]dataspace.Query, n)
	for i := range qs {
		lo := int64(i * 3)
		qs[i] = dataspace.UniverseQuery(sch).WithRange(1, lo, lo+2)
	}
	return qs
}

// TestSessionIsolationOverHTTP is the acceptance scenario: two crawlers
// with distinct tokens against one server each observe their own quota and
// journal.
func TestSessionIsolationOverHTTP(t *testing.T) {
	h, ds := sessionHandler(t, 200, 10, session.Config{Quota: 3})
	ts := httptest.NewServer(h)
	defer ts.Close()

	alice, err := httpclient.DialToken(context.Background(), ts.URL, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := httpclient.DialToken(context.Background(), ts.URL, "bob", nil)
	if err != nil {
		t.Fatal(err)
	}

	qs := distinctBatch(ds.Schema, 5)
	// Alice exhausts her budget mid-batch: she gets the paid prefix plus
	// the typed quota signal.
	res, err := alice.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) || len(res) != 3 {
		t.Fatalf("alice batch: %d results, err=%v; want 3 + quota", len(res), err)
	}
	if _, err := alice.Answer(context.Background(), qs[3]); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("alice post-budget query: %v, want quota", err)
	}
	// Bob's budget is untouched by alice's exhaustion.
	if _, err := bob.Answer(context.Background(), qs[0]); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	// A query alice already paid for is still served — free — after 429s.
	if _, err := alice.Answer(context.Background(), qs[0]); err != nil {
		t.Fatalf("alice replaying a paid query: %v", err)
	}

	// Each session journals exactly its own paid queries.
	tbl := h.Sessions()
	sa, err := tbl.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := tbl.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	if sa.JournalLen() != 3 || sb.JournalLen() != 1 {
		t.Fatalf("journals: alice=%d bob=%d, want 3/1", sa.JournalLen(), sb.JournalLen())
	}
	if sa.Queries() != 3 || sb.Queries() != 1 {
		t.Fatalf("paid queries: alice=%d bob=%d, want 3/1", sa.Queries(), sb.Queries())
	}
	if h.Queries() != 4 {
		t.Fatalf("aggregate queries %d, want 4", h.Queries())
	}
}

// TestStatsEndpoint: GET /stats reports aggregate and per-session
// counters.
func TestStatsEndpoint(t *testing.T) {
	h, ds := sessionHandler(t, 200, 10, session.Config{Quota: 10})
	ts := httptest.NewServer(h)
	defer ts.Close()

	alice, err := httpclient.DialToken(context.Background(), ts.URL, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := distinctBatch(ds.Schema, 4)
	if _, err := alice.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	// A repeat is a free replay, visible in the stats.
	if _, err := alice.Answer(context.Background(), qs[0]); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	var msg wire.StatsMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Queries != 4 {
		t.Errorf("aggregate queries %d, want 4", msg.Queries)
	}
	if msg.Requests != 2 { // /schema is not query-carrying: batch + replay
		t.Errorf("requests %d, want 2 (1 batch + 1 replayed query)", msg.Requests)
	}
	if len(msg.Sessions) != 1 {
		t.Fatalf("%d sessions in stats, want 1", len(msg.Sessions))
	}
	s := msg.Sessions[0]
	if s.Token != "alice" || s.Queries != 4 || s.Remaining != 6 || s.Replays != 1 || s.JournalLen != 4 {
		t.Errorf("alice stats: %+v", s)
	}
}

// TestStatsPlannerCounters: GET /stats surfaces the store's per-access-path
// execution counts, one per query that reached the store.
func TestStatsPlannerCounters(t *testing.T) {
	h, ds := sessionHandler(t, 200, 10, session.Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	cl, err := httpclient.DialToken(context.Background(), ts.URL, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Eight distinct-value queries: session memoization never fires — the
	// values all differ — so every query reaches the store.
	if _, err := cl.AnswerBatch(context.Background(), distinctBatch(ds.Schema, 8)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg wire.StatsMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	p := msg.Planner
	if p == nil {
		t.Fatal("stats: no planner counters from a local store")
	}
	var executed int64
	for _, c := range p.Paths {
		executed += c
	}
	if executed != 8 {
		t.Errorf("access-path executions sum to %d, want 8: %v", executed, p.Paths)
	}
}

// TestCrawlStream: POST /crawl extracts the complete database in one round
// trip, at exactly the client-side crawl's query cost.
func TestCrawlStream(t *testing.T) {
	h, ds := sessionHandler(t, 400, 10, session.Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := httpclient.DialToken(context.Background(), ts.URL, "streamer", nil)
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	var sawDone bool
	res, err := c.Crawl(context.Background(), "", 0, func(ev wire.CrawlEvent) {
		if ev.Done {
			sawDone = true
		} else {
			progress++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Error("no terminal event observed")
	}
	if progress != len(res.Tuples) {
		t.Errorf("%d progress events for %d tuples", progress, len(res.Tuples))
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatalf("streamed crawl incomplete: %d of %d tuples", len(res.Tuples), len(ds.Tuples))
	}
	if h.Requests() != 1 {
		t.Errorf("crawl cost %d round trips, want 1", h.Requests())
	}

	// The paid cost equals the per-session counter and never exceeds a
	// reference client-side crawl (the server-side crawler is the same
	// algorithm over the same store).
	sess, err := h.Sessions().Get("streamer")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Queries() != res.Queries {
		t.Errorf("stream reported %d paid queries, session counted %d", res.Queries, sess.Queries())
	}
}

// TestCrawlStreamQuota: a crawl dying on the session's budget reports it
// on the terminal event with the tuples streamed so far, and a named
// algorithm is honoured.
func TestCrawlStreamQuota(t *testing.T) {
	h, _ := sessionHandler(t, 400, 10, session.Config{Quota: 3})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := httpclient.DialToken(context.Background(), ts.URL, "poor", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Crawl(context.Background(), "hybrid", 0, nil)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("crawl on a 3-query budget: err=%v, want quota", err)
	}
	if res.Queries != 3 {
		t.Errorf("paid %d queries, want the full budget of 3", res.Queries)
	}

	// An unknown algorithm is a 400, not a stream.
	if _, err := c.Crawl(context.Background(), "made-up", 0, nil); err == nil || errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Errorf("unknown algorithm: err=%v, want a bad-request error", err)
	}
}

// TestBodyTokenFallback: a client that cannot set headers can pass the
// token in the batch envelope; the header wins when both are present.
func TestBodyTokenFallback(t *testing.T) {
	h, ds := sessionHandler(t, 200, 10, session.Config{Quota: 10})
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 2)
	body := wire.AppendBatchRequest(nil, qs)
	body = append(body[:len(body)-1], `,"token":"body-tok"}`...)
	resp := postBatch(t, ts.URL, body)
	decodeBatch(t, resp) // closes body
	sess, err := h.Sessions().Get("body-tok")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Queries() != 2 {
		t.Fatalf("body token session paid %d queries, want 2", sess.Queries())
	}
	if h.Sessions().Len() != 1 {
		t.Fatalf("%d sessions, want 1", h.Sessions().Len())
	}
}

// TestConcurrentSessionBatches exercises many tokens hitting /batch
// concurrently — the -race companion of the session table's contract.
func TestConcurrentSessionBatches(t *testing.T) {
	h, ds := sessionHandler(t, 300, 10, session.Config{Quota: 100})
	ts := httptest.NewServer(h)
	defer ts.Close()

	const tokens = 6
	const perToken = 3
	qs := distinctBatch(ds.Schema, 5)
	var wg sync.WaitGroup
	for i := 0; i < tokens; i++ {
		for g := 0; g < perToken; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := httpclient.DialToken(context.Background(), ts.URL, fmt.Sprintf("tok-%d", i), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if res, err := c.AnswerBatch(context.Background(), qs); err != nil || len(res) != len(qs) {
					t.Errorf("token %d: %d results, err=%v", i, len(res), err)
				}
			}(i)
		}
	}
	wg.Wait()

	if got := h.Sessions().Len(); got != tokens {
		t.Fatalf("%d live sessions, want %d", got, tokens)
	}
	for i := 0; i < tokens; i++ {
		sess, err := h.Sessions().Get(fmt.Sprintf("tok-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Every distinct query is paid at least once; concurrent repeats
		// of a not-yet-journaled query may each pay (the batch path does
		// not single-flight across calls), but never more than once per
		// batch.
		if q := sess.Queries(); q < len(qs) || q > perToken*len(qs) {
			t.Errorf("token %d paid %d queries, want %d..%d", i, q, len(qs), perToken*len(qs))
		}
	}
}

// failingServer answers through the inner server until failAt queries have
// been served, then fails every further query with a non-quota error — the
// regression double for a backend dying mid-batch.
type failingServer struct {
	hiddendb.Server
	mu     sync.Mutex
	served int
	failAt int
}

func (f *failingServer) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, f, q)
}

func (f *failingServer) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	out := make([]hiddendb.Result, 0, len(qs))
	for _, q := range qs {
		f.mu.Lock()
		if f.served >= f.failAt {
			f.mu.Unlock()
			return out, errors.New("backend on fire")
		}
		f.served++
		f.mu.Unlock()
		res, err := hiddendb.Answer(ctx, f.Server, q)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// TestBatchFailureDeliversPrefix is the answered-prefix regression test on
// a default handler: when the wrapped server dies mid-batch, a tokenless
// caller gets the prefix the server already paid for — with the error
// signal — and the handler counts exactly those queries, never refunding
// queries the inner server served. The anonymous session journals the
// prefix, so the client's retry replays it before failing again.
func TestBatchFailureDeliversPrefix(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          200,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	inner := hiddendb.NewCounting(&failingServer{Server: local, failAt: 3})
	h := New(inner)
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 5)
	resp := postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-batch failure: %s, want 200 with the paid prefix", resp.Status)
	}
	msg := decodeBatch(t, resp)
	if len(msg.Results) != 3 {
		t.Fatalf("delivered %d results, want the 3-query paid prefix", len(msg.Results))
	}
	if msg.Error == "" {
		t.Error("mid-batch failure not signalled in the response")
	}
	if msg.QuotaExceeded {
		t.Error("non-quota failure flagged quotaExceeded")
	}
	// The handler's counter agrees with the wrapped server's own count.
	if h.Queries() != inner.Queries() || h.Queries() != 3 {
		t.Fatalf("handler counted %d, wrapped server %d; want both 3", h.Queries(), inner.Queries())
	}

	// The same failure surfaces through the client as prefix + error: the
	// anonymous session replays the paid prefix, and the backend fails on
	// the first new query without another query being counted.
	c, err := httpclient.Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AnswerBatch(context.Background(), qs)
	if err == nil || errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("client error = %v, want a non-quota server failure", err)
	}
	if len(res) != 3 {
		t.Fatalf("second batch delivered %d results, want the 3-query replayed prefix", len(res))
	}
	if h.Queries() != 3 {
		t.Fatalf("handler counted %d after the replay, want still 3", h.Queries())
	}
}

// TestBatchFailurePrefixThroughSession is the answered-prefix regression
// test: when the wrapped server dies mid-batch, the handler must deliver
// the prefix the server already paid for — with the error signal, not the
// quota flag — and count exactly those queries, never more or fewer than
// the wrapped server served. The session journals the prefix, so it
// replays for free while the backend is still down.
func TestBatchFailurePrefixThroughSession(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          200,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	inner := hiddendb.NewCounting(&failingServer{Server: local, failAt: 3})
	h := New(inner, WithSessions(session.Config{Quota: 100}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 5)
	resp := postBatchToken(t, ts.URL, "alice", wire.AppendBatchRequest(nil, qs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-batch failure: %s, want 200 with the paid prefix", resp.Status)
	}
	msg := decodeBatch(t, resp)
	if len(msg.Results) != 3 {
		t.Fatalf("delivered %d results, want the 3-query paid prefix", len(msg.Results))
	}
	if msg.Error == "" {
		t.Error("mid-batch failure not signalled in the response")
	}
	if msg.QuotaExceeded {
		t.Error("non-quota failure flagged quotaExceeded")
	}
	// The handler's counter agrees with the wrapped server's own count.
	if h.Queries() != inner.Queries() || h.Queries() != 3 {
		t.Fatalf("handler counted %d, wrapped server %d; want both 3", h.Queries(), inner.Queries())
	}

	// The same failure surfaces through the client as prefix + error: the
	// journaled prefix replays, and the backend fails on the first new query.
	c, err := httpclient.DialToken(context.Background(), ts.URL, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AnswerBatch(context.Background(), qs)
	if err == nil || errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want a non-quota server failure", err)
	}
	if len(res) != 3 {
		t.Fatalf("delivered %d results, want the 3-query paid prefix", len(res))
	}
	sess, err := h.Sessions().Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Queries() != 3 || sess.JournalLen() != 3 {
		t.Fatalf("session paid %d queries, journaled %d; want 3/3", sess.Queries(), sess.JournalLen())
	}
	// The journaled prefix replays for free even though the backend is
	// still down.
	if _, err := c.Answer(context.Background(), qs[0]); err != nil {
		t.Fatalf("replaying the paid prefix: %v", err)
	}
}

// TestAnonymousCrawlsShareQuota: tokenless callers share the anonymous
// session, so two concurrent /crawl streams debit one budget and can never
// overrun it between them; a later crawl replays the paid queries and dies
// on the same spent budget.
func TestAnonymousCrawlsShareQuota(t *testing.T) {
	const quota = 5
	h, _ := testHandler(t, 400, 10, quota)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := httpclient.Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The dataset needs far more than 5 queries: both crawls must
			// die on the shared budget.
			if _, err := c.Crawl(context.Background(), "", 0, nil); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
				t.Errorf("crawl err = %v, want quota", err)
			}
		}()
	}
	wg.Wait()
	if h.Queries() != quota {
		t.Fatalf("concurrent crawls served %d queries total, want exactly the %d-query quota", h.Queries(), quota)
	}
	// A spent budget does not refuse the stream: it replays the paid
	// queries and reports the quota on the done line.
	res, err := c.Crawl(context.Background(), "", 0, nil)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("post-budget crawl err = %v, want quota", err)
	}
	if res == nil {
		t.Fatal("post-budget crawl returned no result: the stream did not open")
	}
	if res.Queries != quota {
		t.Fatalf("post-budget crawl: %d paid, want %d", res.Queries, quota)
	}
	if n := h.Sessions().Len(); n != 1 {
		t.Fatalf("%d sessions, want only the anonymous one", n)
	}
}

// TestDefaultHandlerHonoursTokens: a handler built without WithSessions
// still keys every request by its token, so two clients pay separately.
func TestDefaultHandlerHonoursTokens(t *testing.T) {
	base, ds := testHandler(t, 200, 10, 0)
	h := New(base.srv)
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 3)
	for tok, n := range map[string]int{"alice": 3, "bob": 1} {
		c, err := httpclient.DialToken(context.Background(), ts.URL, tok, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AnswerBatch(context.Background(), qs[:n]); err != nil {
			t.Fatal(err)
		}
	}
	for tok, want := range map[string]int{"alice": 3, "bob": 1} {
		sess, err := h.Sessions().Get(tok)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Queries() != want {
			t.Errorf("%s paid %d queries, want %d", tok, sess.Queries(), want)
		}
	}
	if h.Queries() != 4 || h.Sessions().Len() != 2 {
		t.Fatalf("%d queries over %d sessions, want 4 over 2", h.Queries(), h.Sessions().Len())
	}
}

// TestQuotaSpansEndpoints: a session's budget is counted in queries across
// /query and /batch alike, so batching cannot stretch it.
func TestQuotaSpansEndpoints(t *testing.T) {
	h, ds := testHandler(t, 200, 10, 5)
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 7)
	// Two singles spend 2 of 5...
	for i := 0; i < 2; i++ {
		resp := postQuery(t, ts.URL, wire.EncodeQuery(qs[i]))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %d: %s", i, resp.Status)
		}
	}
	// ...so a batch of 4 new queries only affords 3.
	msg := decodeBatch(t, postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs[2:6])))
	if !msg.QuotaExceeded || len(msg.Results) != 3 {
		t.Fatalf("batch after singles: %d results, flag=%v; want 3 + flag", len(msg.Results), msg.QuotaExceeded)
	}
	if h.Queries() != 5 {
		t.Fatalf("counted %d queries across endpoints, want 5", h.Queries())
	}
	// Both endpoints now refuse a new query.
	resp := postQuery(t, ts.URL, wire.EncodeQuery(qs[6]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-budget single: %s, want 429", resp.Status)
	}
	resp = postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs[6:]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-budget batch: %s, want 429", resp.Status)
	}
}
