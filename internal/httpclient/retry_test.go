package httpclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpserver"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// flakyFront fronts a real handler, failing the first fail requests per
// path with the given status (0 = drop the connection instead).
type flakyFront struct {
	inner http.Handler

	mu     sync.Mutex
	fails  map[string]int
	status int
	header http.Header
	seen   map[string]int
}

func newFlakyFront(inner http.Handler, status int) *flakyFront {
	return &flakyFront{
		inner:  inner,
		fails:  make(map[string]int),
		status: status,
		header: make(http.Header),
		seen:   make(map[string]int),
	}
}

func (f *flakyFront) failNext(path string, n int) {
	f.mu.Lock()
	f.fails[path] = n
	f.mu.Unlock()
}

func (f *flakyFront) requests(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[path]
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.seen[r.URL.Path]++
	inject := f.fails[r.URL.Path] > 0
	if inject {
		f.fails[r.URL.Path]--
	}
	status := f.status
	hdr := f.header.Clone()
	f.mu.Unlock()
	if !inject {
		f.inner.ServeHTTP(w, r)
		return
	}
	if status == 0 {
		panic(http.ErrAbortHandler) // sever the connection mid-request
	}
	for k, vs := range hdr {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	http.Error(w, "injected failure", status)
}

// retryClient dials through the flaky front with a fast deterministic
// policy on a virtual clock.
func retryClient(t *testing.T, front *flakyFront, policy RetryPolicy) *Client {
	t.Helper()
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	c, err := DialRetry(context.Background(), ts.URL, "tok", nil, policy)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sessionHandler(t *testing.T, n, k int) *httpserver.Handler {
	t.Helper()
	ds := mixedDataset(t, n)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	return httpserver.New(local, httpserver.WithSessions(session.Config{}))
}

// TestRetryTransient5xx: a 500 burst shorter than the attempt cap is
// absorbed; queries succeed and pay exactly once.
func TestRetryTransient5xx(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := newFlakyFront(h, http.StatusInternalServerError)
	clock := hiddendb.NewSimClock()
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 4, Clock: clock})

	front.failNext("/query", 2)
	q := dataspace.UniverseQuery(c.Schema())
	if _, err := c.Answer(context.Background(), q); err != nil {
		t.Fatalf("answer through 500 burst: %v", err)
	}
	if got := front.requests("/query"); got != 3 {
		t.Fatalf("query took %d requests, want 3 (2 failures + success)", got)
	}
	if h.Queries() != 1 {
		t.Fatalf("server charged %d queries, want 1", h.Queries())
	}
	if clock.Now() == 0 {
		t.Fatal("retries slept no virtual time")
	}
}

// TestRetrySeveredConnection: a connection dropped mid-request (no
// response at all) is retried like any transient failure.
func TestRetrySeveredConnection(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := newFlakyFront(h, 0) // panic(http.ErrAbortHandler)
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})

	front.failNext("/query", 1)
	if _, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema())); err != nil {
		t.Fatalf("answer through dropped connection: %v", err)
	}
	if got := front.requests("/query"); got != 2 {
		t.Fatalf("query took %d requests, want 2", got)
	}
}

// TestRetryExhaustionIsTyped: a failure outlasting MaxAttempts surfaces as
// a *TransportError wrapping the last attempt's error.
func TestRetryExhaustionIsTyped(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := newFlakyFront(h, http.StatusBadGateway)
	clock := hiddendb.NewSimClock()
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 3, Clock: clock})

	front.failNext("/query", 100)
	_, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema()))
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	if te.Op != "query" || te.Attempts != 3 {
		t.Fatalf("TransportError{Op: %q, Attempts: %d}, want query/3", te.Op, te.Attempts)
	}
	if got := front.requests("/query"); got != 3 {
		t.Fatalf("made %d requests, want 3", got)
	}
}

// TestRetryBudgetBrakesStorm: the client-wide budget caps retries across
// calls, so a long outage cannot multiply into a request storm.
func TestRetryBudgetBrakesStorm(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := newFlakyFront(h, http.StatusServiceUnavailable)
	clock := hiddendb.NewSimClock()
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 10, Budget: 3, Clock: clock})

	front.failNext("/query", 100)
	q := dataspace.UniverseQuery(c.Schema())
	_, err := c.Answer(context.Background(), q)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	// 1 first attempt + 3 budgeted retries.
	if got := front.requests("/query"); got != 4 {
		t.Fatalf("made %d requests, want 4 (budget of 3 retries)", got)
	}
	// The budget is spent for good: the next call fails after its first try.
	_, err = c.Answer(context.Background(), q)
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Fatalf("post-budget call: err = %v, want 1-attempt *TransportError", err)
	}
}

// TestRetryHonorsRetryAfter: an overloaded server's Retry-After stretches
// the backoff to at least what it asked for.
func TestRetryHonorsRetryAfter(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := newFlakyFront(h, http.StatusServiceUnavailable)
	front.header.Set("Retry-After", "7")
	clock := hiddendb.NewSimClock()
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 2, Clock: clock})

	front.failNext("/query", 1)
	if _, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema())); err != nil {
		t.Fatalf("answer through shed request: %v", err)
	}
	if clock.Now() < 7*time.Second {
		t.Fatalf("slept %v of virtual time, want >= 7s (Retry-After)", clock.Now())
	}
}

// TestRetryDeterministicSchedule: equal seeds give equal backoff
// schedules; different seeds differ (jitter is real but reproducible).
func TestRetryDeterministicSchedule(t *testing.T) {
	elapsed := func(seed uint64) time.Duration {
		h := sessionHandler(t, 200, 16)
		front := newFlakyFront(h, http.StatusInternalServerError)
		clock := hiddendb.NewSimClock()
		c := retryClient(t, front, RetryPolicy{MaxAttempts: 5, JitterSeed: seed, Clock: clock})
		front.failNext("/query", 3)
		if _, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return clock.Now()
	}
	a1, a2, b := elapsed(1), elapsed(1), elapsed(2)
	if a1 != a2 {
		t.Fatalf("same seed, different schedules: %v vs %v", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds, identical schedules: %v", a1)
	}
}

// TestNoRetryOnProtocolAnswers: 429 (quota) and 404 (legacy probe) are
// answers, not failures — they must not burn retries.
func TestNoRetryOnProtocolAnswers(t *testing.T) {
	ds := mixedDataset(t, 200)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := httpserver.New(local, httpserver.WithSessions(session.Config{Quota: 1}))
	front := newFlakyFront(h, 0)
	clock := hiddendb.NewSimClock()
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 5, Clock: clock})

	qs := distinctRetryQueries(ds.Schema, 3)
	if _, err := c.Answer(context.Background(), qs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Answer(context.Background(), qs[1]); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("over-quota answer: %v, want ErrQuotaExceeded", err)
	}
	if got := front.requests("/query"); got != 2 {
		t.Fatalf("429 was retried: %d requests to /query, want 2", got)
	}
	if clock.Now() != 0 {
		t.Fatalf("protocol answers slept %v of backoff", clock.Now())
	}
}

// TestNoRetryOnCancel: the caller hanging up surfaces as the ctx error
// immediately — no retries, no TransportError.
func TestNoRetryOnCancel(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := newFlakyFront(h, http.StatusInternalServerError)
	c := retryClient(t, front, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Answer(ctx, dataspace.UniverseQuery(c.Schema()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var te *TransportError
	if errors.As(err, &te) {
		t.Fatal("cancellation wrapped in TransportError")
	}
}

// distinctRetryQueries builds n distinct single-range queries.
func distinctRetryQueries(sch *dataspace.Schema, n int) []dataspace.Query {
	qs := make([]dataspace.Query, n)
	for i := range qs {
		lo := int64(i * 3)
		qs[i] = dataspace.UniverseQuery(sch).WithRange(2, lo, lo+2)
	}
	return qs
}

// cuttingFront fronts a handler and truncates /crawl response bodies at a
// scripted sequence of byte counts (one per request; -1 = no cut).
type cuttingFront struct {
	inner http.Handler

	mu    sync.Mutex
	cuts  []int
	crawl atomic.Int64
}

func (f *cuttingFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/crawl" {
		f.inner.ServeHTTP(w, r)
		return
	}
	n := f.crawl.Add(1)
	f.mu.Lock()
	cut := -1
	if int(n)-1 < len(f.cuts) {
		cut = f.cuts[n-1]
	}
	f.mu.Unlock()
	if cut < 0 {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.inner.ServeHTTP(&truncatingWriter{ResponseWriter: w, limit: cut}, r)
}

// truncatingWriter silently discards everything past limit bytes, then
// aborts the connection when the handler finishes — the wire picture of a
// stream severed mid-flight.
type truncatingWriter struct {
	http.ResponseWriter
	written int
	limit   int
}

func (tw *truncatingWriter) Write(p []byte) (int, error) {
	room := tw.limit - tw.written
	if room <= 0 {
		return len(p), nil // swallowed; caller sees success
	}
	if room > len(p) {
		room = len(p)
	}
	n, err := tw.ResponseWriter.Write(p[:room])
	tw.written += n
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// TestCrawlResumesSeveredStream: a /crawl stream cut mid-flight is
// resumed via the skip cursor — the full bag arrives exactly once, and
// the extraction pays no more queries than an undisturbed crawl.
func TestCrawlResumesSeveredStream(t *testing.T) {
	ds := mixedDataset(t, 300)
	k := 16

	// Fault-free reference cost.
	refLocal, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	refHandler := httpserver.New(refLocal, httpserver.WithSessions(session.Config{}))
	refTS := httptest.NewServer(refHandler)
	refClient, err := DialToken(context.Background(), refTS.URL, "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refClient.Crawl(context.Background(), "", 0, nil)
	refTS.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, cuts := range [][]int{
		{900},            // one mid-stream cut
		{900, 2000, 100}, // repeated cuts, including an early one
		{0, 0, 500},      // cut before any payload, twice
		{900, -1, 700},   // recover, then cut a later reconnect
	} {
		t.Run(fmt.Sprintf("cuts=%v", cuts), func(t *testing.T) {
			local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
			if err != nil {
				t.Fatal(err)
			}
			h := httpserver.New(local, httpserver.WithSessions(session.Config{}))
			front := &cuttingFront{inner: h, cuts: cuts}
			ts := httptest.NewServer(front)
			defer ts.Close()
			clock := hiddendb.NewSimClock()
			c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{MaxAttempts: 4, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}

			res, err := c.Crawl(context.Background(), "", 0, nil)
			if err != nil {
				t.Fatalf("resumed crawl failed: %v", err)
			}
			if !res.Tuples.EqualMultiset(ref.Tuples) {
				t.Fatalf("stitched bag differs from reference: %d vs %d tuples", len(res.Tuples), len(ref.Tuples))
			}
			if res.Queries != ref.Queries {
				t.Fatalf("resumption cost extra: %d paid queries, fault-free reference %d", res.Queries, ref.Queries)
			}
			if got := h.Sessions().TotalQueries(); got != ref.Queries {
				t.Fatalf("server-side paid count %d, want %d", got, ref.Queries)
			}
		})
	}
}

// TestCrawlSeqResumesWithoutDuplicates: the iterator form reconnects
// transparently and never yields a tuple twice.
func TestCrawlSeqResumesWithoutDuplicates(t *testing.T) {
	ds := mixedDataset(t, 300)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := httpserver.New(local, httpserver.WithSessions(session.Config{}))
	front := &cuttingFront{inner: h, cuts: []int{700, 2500}}
	ts := httptest.NewServer(front)
	defer ts.Close()
	clock := hiddendb.NewSimClock()
	c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{MaxAttempts: 4, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	var got dataspace.Bag
	for tu, err := range c.CrawlSeq(context.Background(), "", 0) {
		if err != nil {
			t.Fatalf("iterator failed: %v", err)
		}
		got = append(got, tu)
	}
	if !got.EqualMultiset(ds.Tuples) {
		t.Fatalf("stitched bag has %d tuples, dataset %d (duplicate or lost tuples)", len(got), len(ds.Tuples))
	}
	if front.crawl.Load() != 3 {
		t.Fatalf("crawl opened %d connections, want 3", front.crawl.Load())
	}
}

// TestCrawlReconnectFailureKeepsQueries: when the reconnect after a
// severed stream fails — refused with a quota 429, or cut before its first
// byte until the attempts run out — Crawl and CrawlSeq both report the
// paid count the severed stream last carried, not zero.
func TestCrawlReconnectFailureKeepsQueries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cuts    []int
		refuse  bool // answer the second /crawl with 429
		wantErr func(error) bool
	}{
		{"refused", []int{900}, true, func(err error) bool { return errors.Is(err, hiddendb.ErrQuotaExceeded) }},
		{"silent", []int{900, 0, 0, 0}, false, func(err error) bool { var te *TransportError; return errors.As(err, &te) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dial := func(t *testing.T) *Client {
				front := &cuttingFront{inner: sessionHandler(t, 200, 16), cuts: tc.cuts}
				var crawls atomic.Int32
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if tc.refuse && r.URL.Path == "/crawl" && crawls.Add(1) == 2 {
						http.Error(w, "quota exceeded", http.StatusTooManyRequests)
						return
					}
					front.ServeHTTP(w, r)
				}))
				t.Cleanup(ts.Close)
				c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{MaxAttempts: 3, Clock: hiddendb.NewSimClock()})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			seen := 0 // the paid count on the last line the severed stream delivered
			res, err := dial(t).Crawl(context.Background(), "", 0, func(ev wire.CrawlEvent) { seen = ev.Queries })
			if !tc.wantErr(err) {
				t.Fatalf("Crawl: err = %v", err)
			}
			if res == nil {
				t.Fatal("Crawl: nil result after a stream that carried events")
			}
			if seen == 0 || res.Queries != seen {
				t.Fatalf("Crawl: %d paid queries after a stream that last reported %d", res.Queries, seen)
			}

			tuples := 0
			for _, err := range dial(t).CrawlSeq(context.Background(), "", 0) {
				if err == nil {
					tuples++
					continue
				}
				var pe *core.PartialError
				if !errors.As(err, &pe) || !tc.wantErr(err) {
					t.Fatalf("CrawlSeq: err = %v, want a PartialError wrapping the failure", err)
				}
				if pe.Queries != seen {
					t.Fatalf("CrawlSeq: PartialError.Queries = %d after %d tuples, want %d", pe.Queries, tuples, seen)
				}
				return
			}
			t.Fatal("CrawlSeq ended without an error")
		})
	}
}

// TestCrawlSeveredWithoutRetryStillFails pins the pre-retry behavior: a
// plain DialToken client reports the truncation instead of resuming.
func TestCrawlSeveredWithoutRetryStillFails(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := &cuttingFront{inner: h, cuts: []int{500}}
	ts := httptest.NewServer(front)
	defer ts.Close()
	c, err := DialToken(context.Background(), ts.URL, "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Crawl(context.Background(), "", 0, nil)
	if err == nil || !strings.Contains(err.Error(), "crawl stream") {
		t.Fatalf("severed stream without retry: err = %v, want stream error", err)
	}
}

// TestCrawlGivesUpAfterNoProgress: reconnects that never advance the
// cursor stop at the policy's attempt cap with a typed error.
func TestCrawlGivesUpAfterNoProgress(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	cuts := make([]int, 32)
	for i := range cuts {
		cuts[i] = 0 // every stream dies before its first byte
	}
	front := &cuttingFront{inner: h, cuts: cuts}
	ts := httptest.NewServer(front)
	defer ts.Close()
	clock := hiddendb.NewSimClock()
	c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{MaxAttempts: 3, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Crawl(context.Background(), "", 0, nil)
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "crawl" {
		t.Fatalf("err = %v, want crawl *TransportError", err)
	}
	if n := front.crawl.Load(); n != 3 {
		t.Fatalf("opened %d streams, want 3 (MaxAttempts)", n)
	}
}

// TestPerAttemptTimeout: an attempt that never responds is abandoned
// after PerAttempt and retried; the caller's ctx stays intact.
func TestPerAttemptTimeout(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	var hang atomic.Int64
	hang.Store(1)
	front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" && hang.Add(-1) >= 0 {
			// Drain the body so the server's background read can detect
			// the client abandoning the attempt and cancel the ctx.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done(): // hang until the attempt is abandoned
			case <-time.After(5 * time.Second): // test-failure backstop
			}
			return
		}
		h.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(front)
	defer ts.Close()
	c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		PerAttempt:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema())); err != nil {
		t.Fatalf("answer through hung attempt: %v", err)
	}
}

// TestStreamEventsSurviveResume: onEvent keeps observing lines across
// reconnects, and the terminal event arrives exactly once.
func TestStreamEventsSurviveResume(t *testing.T) {
	h := sessionHandler(t, 200, 16)
	front := &cuttingFront{inner: h, cuts: []int{800}}
	ts := httptest.NewServer(front)
	defer ts.Close()
	clock := hiddendb.NewSimClock()
	c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{MaxAttempts: 3, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	terminals := 0
	c.Crawl(context.Background(), "", 0, func(ev wire.CrawlEvent) {
		if ev.Done {
			terminals++
		}
	})
	if terminals != 1 {
		t.Fatalf("observed %d terminal events, want 1", terminals)
	}
}

// drainingFront answers the first /query with a genuinely draining
// handler — real drain shed, real Retry-After hint — and hands everything
// after it to a healthy twin, modelling a load balancer flipping away
// from a node mid-restart.
type drainingFront struct {
	draining, healthy http.Handler
	served            atomic.Int32
}

func (f *drainingFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/query" && f.served.Add(1) == 1 {
		f.draining.ServeHTTP(w, r)
		return
	}
	f.healthy.ServeHTTP(w, r)
}

// TestRetryHonorsDrainHint: a drain shed's Retry-After is deliberately
// much larger than a capacity shed's — one-way drains are not worth
// hammering — and the retrying client must actually stay away that long.
// This pins the server hint and the client obedience together: shrinking
// either breaks the bargain.
func TestRetryHonorsDrainHint(t *testing.T) {
	drained := sessionHandler(t, 200, 16)
	drained.Drain()
	front := &drainingFront{draining: drained, healthy: sessionHandler(t, 200, 16)}

	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	clock := hiddendb.NewSimClock()
	c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{MaxAttempts: 2, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema())); err != nil {
		t.Fatalf("answer through draining node: %v", err)
	}
	// The drain hint is 30s vs the capacity shed's 1s; riding the real
	// header proves the distinct hint survives the whole stack.
	if clock.Now() < 30*time.Second {
		t.Fatalf("slept %v of virtual time, want >= 30s (the drain Retry-After)", clock.Now())
	}
	if got := front.served.Load(); got != 2 {
		t.Fatalf("served %d /query requests, want 2 (the shed + the retry)", got)
	}
}
