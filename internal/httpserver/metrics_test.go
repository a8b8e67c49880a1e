package httpserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// catQuery builds a point query on the test schema's categorical
// attribute (domain {1..4}), everything else wild.
func catQuery(t *testing.T, schema *dataspace.Schema, v int64) wire.QueryMsg {
	t.Helper()
	preds := make([]wire.Pred, schema.Dims())
	for i := range preds {
		if schema.Attr(i).Kind == dataspace.Categorical {
			preds[i] = wire.Pred{Value: &v}
		}
	}
	return wire.QueryMsg{Preds: preds}
}

func postBatchToken(t *testing.T, url, token string, msg wire.BatchRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/batch", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMetricsGoldenText pins the whole Prometheus exposition, byte for
// byte, after a fixed traffic scenario that lights up every always-present
// series: served queries, a batch, one shed of each deterministic reason,
// a quota rejection, live sessions with a rate class, plan-path and
// engine counters. Reordering series, renaming one, or changing a label
// breaks dashboards silently — this test makes it loud instead.
func TestMetricsGoldenText(t *testing.T) {
	base, ds := testHandler(t, 120, 8, 0)
	h := New(base.srv,
		WithSessions(session.Config{
			Quota:       2,
			MaxSessions: 2,
			RateClasses: []session.RateClass{{Name: "gold"}}, // explicit unlimited tier
		}),
		WithShedding(0))
	ts := httptest.NewServer(h)
	defer ts.Close()

	// gold-a and bob establish sessions and pay one query each.
	for tok, v := range map[string]int64{"gold-a": 1, "bob": 2} {
		resp := postQueryToken(t, ts.URL, tok, catQuery(t, ds.Schema, v))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("token %s: %s", tok, resp.Status)
		}
	}
	// carol finds the table full: one session_table_full shed, which is
	// not a served round trip.
	resp := postQueryToken(t, ts.URL, "carol", catQuery(t, ds.Schema, 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("carol on full table: %s, want 503", resp.Status)
	}
	// gold-a's width-3 batch runs into its quota after one more query.
	var batch wire.BatchRequest
	for _, v := range []int64{2, 3, 4} {
		batch.Queries = append(batch.Queries, catQuery(t, ds.Schema, v))
	}
	bresp := postBatchToken(t, ts.URL, "gold-a", batch)
	var bout wire.BatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&bout); err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK || !bout.QuotaExceeded || len(bout.Results) != 1 {
		t.Fatalf("batch: status=%s quotaExceeded=%v results=%d", bresp.Status, bout.QuotaExceeded, len(bout.Results))
	}
	// gold-a over budget on /query: one 429.
	resp = postQueryToken(t, ts.URL, "gold-a", catQuery(t, ds.Schema, 3))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota query: %s, want 429", resp.Status)
	}
	// Drain, then one more request: one draining shed.
	h.Drain()
	resp = postQueryToken(t, ts.URL, "bob", catQuery(t, ds.Schema, 3))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: %s, want 503", resp.Status)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics while draining: %s, want 200 (observability must outlive admission)", mresp.Status)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	got, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != metricsGolden {
		t.Errorf("exposition drifted from golden:\n--- got\n%s\n--- want\n%s", got, metricsGolden)
	}
}

// metricsGolden is the full exposition the scenario above must produce.
const metricsGolden = `# HELP hidb_requests_total Query-carrying HTTP round trips served (/query, /batch, /crawl).
# TYPE hidb_requests_total counter
hidb_requests_total 4
# HELP hidb_queries_total Paid form queries served across all clients.
# TYPE hidb_queries_total counter
hidb_queries_total 3
# HELP hidb_inflight Query-carrying requests currently being served.
# TYPE hidb_inflight gauge
hidb_inflight 0
# HELP hidb_draining 1 once the handler entered drain mode (one-way).
# TYPE hidb_draining gauge
hidb_draining 1
# HELP hidb_quota_rejected_total Requests rejected with 429: the caller's query budget ran dry.
# TYPE hidb_quota_rejected_total counter
hidb_quota_rejected_total 1
# HELP hidb_shed_total Requests shed with 503, by reason.
# TYPE hidb_shed_total counter
hidb_shed_total{reason="capacity"} 0
hidb_shed_total{reason="draining"} 1
hidb_shed_total{reason="session_table_full"} 1
# HELP hidb_batch_width Queries per /batch request.
# TYPE hidb_batch_width histogram
hidb_batch_width_bucket{le="1"} 0
hidb_batch_width_bucket{le="2"} 0
hidb_batch_width_bucket{le="4"} 1
hidb_batch_width_bucket{le="8"} 1
hidb_batch_width_bucket{le="16"} 1
hidb_batch_width_bucket{le="32"} 1
hidb_batch_width_bucket{le="64"} 1
hidb_batch_width_bucket{le="128"} 1
hidb_batch_width_bucket{le="+Inf"} 1
hidb_batch_width_sum 3
hidb_batch_width_count 1
# HELP hidb_sessions_live Live sessions in the table.
# TYPE hidb_sessions_live gauge
hidb_sessions_live 2
# HELP hidb_sessions_evicted_total Sessions evicted by TTL expiry or LRU pressure.
# TYPE hidb_sessions_evicted_total counter
hidb_sessions_evicted_total 0
# HELP hidb_sessions_recovered_journals_total Session journals reloaded via longest-valid-prefix recovery.
# TYPE hidb_sessions_recovered_journals_total counter
hidb_sessions_recovered_journals_total 0
# HELP hidb_rate_class_sessions Live sessions per named rate class.
# TYPE hidb_rate_class_sessions gauge
hidb_rate_class_sessions{class="gold"} 1
# HELP hidb_plan_path_total Executed selections by access path.
# TYPE hidb_plan_path_total counter
hidb_plan_path_total{path="scan"} 3
# HELP hidb_engine_info Store engine identity (value is always 1).
# TYPE hidb_engine_info gauge
hidb_engine_info{kind="mem"} 1
`

// TestHealthzZeroSessionsVisible pins the fixed bug where a session table
// with zero live sessions omitted its count: the raw JSON must carry
// "sessions":0.
func TestHealthzZeroSessionsVisible(t *testing.T) {
	h, _ := testHandler(t, 20, 5, 0)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rec.Body.String(), `"sessions":0`) {
		t.Errorf("fresh session table healthz omits the zero count: %s", rec.Body.String())
	}
}

// TestHealthzNeverReadyAndDraining races Drain against /healthz scrapes:
// no response may ever claim the contradictory Ready && Draining, which
// the old two-load implementation could produce when the flag flipped
// between its reads.
func TestHealthzNeverReadyAndDraining(t *testing.T) {
	for i := 0; i < 200; i++ {
		base, _ := testHandler(t, 10, 5, 0)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			base.Drain()
		}()
		var body struct {
			Ready    bool `json:"ready"`
			Draining bool `json:"draining"`
			Live     bool `json:"live"`
		}
		var rec *httptest.ResponseRecorder
		go func() {
			defer wg.Done()
			<-start
			rec = httptest.NewRecorder()
			base.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		}()
		close(start)
		wg.Wait()
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Ready && body.Draining {
			t.Fatalf("healthz reported Ready && Draining (iteration %d): %s", i, rec.Body.String())
		}
		if !body.Live {
			t.Fatalf("healthz reported not live: %s", rec.Body.String())
		}
		if body.Ready != (rec.Code == http.StatusOK) {
			t.Fatalf("status %d contradicts ready=%v", rec.Code, body.Ready)
		}
	}
}

// TestShedHintsDistinguishDrainFromCapacity pins the fixed bug where a
// drain shed carried the same Retry-After as a transient capacity shed:
// the drain hint must be much larger (drain is one-way; retrying in a
// second is wasted load) and the bodies must name different causes.
func TestShedHintsDistinguishDrainFromCapacity(t *testing.T) {
	read := func(h *Handler, path string) (retryAfter int, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, rec.Code)
		}
		ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("%s: Retry-After %q: %v", path, rec.Header().Get("Retry-After"), err)
		}
		return ra, strings.TrimSpace(rec.Body.String())
	}

	base, _ := testHandler(t, 20, 5, 0)

	// Capacity: a handler whose only in-flight slot is already taken.
	caph := New(base.srv, WithShedding(1))
	caph.mu.Lock()
	caph.inFlight = 1 // simulate an occupied slot without a live request
	caph.mu.Unlock()
	capHint, capBody := read(caph, "/query")

	drainh := New(base.srv)
	drainh.Drain()
	drainHint, drainBody := read(drainh, "/query")

	if drainHint <= capHint {
		t.Errorf("drain Retry-After %d not larger than capacity's %d", drainHint, capHint)
	}
	if capBody == drainBody {
		t.Errorf("capacity and drain sheds share one body %q — clients cannot tell them apart", capBody)
	}
	if !strings.Contains(drainBody, "draining") {
		t.Errorf("drain shed body %q does not name the drain", drainBody)
	}
}

// TestScrapesRaceCrawl runs /stats, /metrics and /healthz scrapes
// concurrently with a streaming /crawl and mixed queries — the
// observability endpoints read every counter the serving path writes, so
// this is the -race probe for torn snapshots.
func TestScrapesRaceCrawl(t *testing.T) {
	base, ds := testHandler(t, 200, 8, 0)
	h := New(base.srv, WithSessions(session.Config{MaxSessions: 8,
		RateClasses: []session.RateClass{{Name: "gold"}}}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	for _, path := range []string{"/stats", "/metrics", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(wire.CrawlRequest{})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/crawl", strings.NewReader(string(body)))
		req.Header.Set("Authorization", "Bearer gold-crawler")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp := postQueryToken(t, ts.URL, fmt.Sprintf("q-%d", i%4), catQuery(t, ds.Schema, int64(1+i%4)))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(out), "hidb_queries_total") {
		t.Error("post-race /metrics exposition is missing hidb_queries_total")
	}
}
