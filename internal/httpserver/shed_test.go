package httpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// gatedServer blocks every call until the gate is closed, so a test can
// hold a request in flight deterministically.
type gatedServer struct {
	hiddendb.Server
	gate chan struct{}
}

func (g *gatedServer) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, g, q)
}

func (g *gatedServer) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Server.AnswerBatch(ctx, qs)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postQueryToken(t *testing.T, url, token string, msg wire.QueryMsg) *http.Response {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
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

// A handler bounded to one in-flight request sheds the second concurrent
// query with 503 + Retry-After, and serves again once the slot frees up.
func TestShedAtCapacity(t *testing.T) {
	h, ds := testHandler(t, 50, 5, 0)
	gated := &gatedServer{Server: h.srv, gate: make(chan struct{})}
	h = New(gated, WithShedding(1))
	ts := httptest.NewServer(h)
	defer ts.Close()

	u := wire.EncodeQuery(dataspace.UniverseQuery(ds.Schema))
	first := make(chan int, 1)
	go func() {
		resp := postQuery(t, ts.URL, u)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, "first request in flight", func() bool { return h.InFlight() == 1 })

	resp := postQuery(t, ts.URL, u)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload query: got %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}

	close(gated.gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", code)
	}
	// A new query: repeating u would be a free journal replay.
	resp = postQuery(t, ts.URL, wire.EncodeQuery(dataspace.UniverseQuery(ds.Schema).WithValue(0, 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload query: %s", resp.Status)
	}
	// Only the two served queries were charged; the shed one cost nothing.
	if h.Queries() != 2 {
		t.Errorf("paid queries = %d, want 2", h.Queries())
	}
}

// Drain flips the handler one-way into shedding everything new while
// /healthz reports not-ready, so load balancers stop routing to it.
func TestDrainShedsNewRequests(t *testing.T) {
	h, ds := testHandler(t, 50, 5, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	health := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := health(); code != http.StatusOK || body["ready"] != true || body["draining"] != false {
		t.Fatalf("pre-drain healthz: code=%d body=%v", code, body)
	}

	h.Drain()
	code, body := health()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", code)
	}
	if body["ready"] != false || body["draining"] != true || body["live"] != true {
		t.Fatalf("draining healthz body = %v", body)
	}

	u := wire.EncodeQuery(dataspace.UniverseQuery(ds.Schema))
	resp := postQuery(t, ts.URL, u)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query: got %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("drain shed missing Retry-After")
	}
	if h.Queries() != 0 {
		t.Errorf("drained requests were charged: %d", h.Queries())
	}
	// /schema stays available: it is free and lets clients finish dialling.
	sresp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Errorf("draining /schema: %s", sresp.Status)
	}
}

// With shedding on, a full session table rejects unseen tokens instead of
// evicting an established client's session out from under it; established
// tokens keep being served. Without shedding, LRU eviction still applies.
func TestSessionTableFullRejectsNewTokens(t *testing.T) {
	h, ds := testHandler(t, 50, 5, 0)
	srv := h.srv
	u := wire.EncodeQuery(dataspace.UniverseQuery(ds.Schema))

	shedding := New(srv, WithSessions(session.Config{MaxSessions: 2}), WithShedding(0))
	ts := httptest.NewServer(shedding)
	defer ts.Close()

	for _, tok := range []string{"alice", "bob"} {
		resp := postQueryToken(t, ts.URL, tok, u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("token %s: %s", tok, resp.Status)
		}
	}
	resp := postQueryToken(t, ts.URL, "carol", u)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new token on full table: got %s, want 503", resp.Status)
	}
	uq := dataspace.UniverseQuery(ds.Schema)
	resp = postBatchToken(t, ts.URL, "carol", wire.AppendBatchRequest(nil, []dataspace.Query{uq, uq}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new token's batch on full table: got %s, want 503", resp.Status)
	}
	resp = postQueryToken(t, ts.URL, "alice", u)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("established token after rejection: %s", resp.Status)
	}
	if n := shedding.Sessions().Len(); n != 2 {
		t.Errorf("session table has %d entries, want 2", n)
	}
	// A shed request was never served: only alice, bob and alice count as
	// round trips, and carol's batch never reaches the width histogram.
	if n := shedding.Requests(); n != 3 {
		t.Errorf("Requests() = %d after 3 served and 2 shed requests, want 3", n)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(exposition), "\nhidb_batch_width_count 0\n") {
		t.Errorf("shed batch reached the width histogram:\n%s", exposition)
	}

	// Without WithShedding the table evicts LRU instead.
	evicting := New(srv, WithSessions(session.Config{MaxSessions: 2}))
	ts2 := httptest.NewServer(evicting)
	defer ts2.Close()
	for _, tok := range []string{"alice", "bob", "carol"} {
		resp := postQueryToken(t, ts2.URL, tok, u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evicting table, token %s: %s", tok, resp.Status)
		}
	}
}

// statusRecorder counts 503 responses flowing through the front so the
// test can prove the client was actually shed before succeeding.
type statusRecorder struct {
	inner http.Handler
	shed  atomic.Int32
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	s.inner.ServeHTTP(sw, r)
	if sw.status == http.StatusServiceUnavailable {
		s.shed.Add(1)
	}
}

// A retry-enabled client rides out a shedding server transparently: its
// 503s are transient, so the query lands once the overload clears, and the
// shed attempts cost nothing.
func TestRetryClientRidesOutShedding(t *testing.T) {
	h, ds := testHandler(t, 50, 5, 0)
	gated := &gatedServer{Server: h.srv, gate: make(chan struct{})}
	h = New(gated, WithShedding(1))
	front := &statusRecorder{inner: h}
	ts := httptest.NewServer(front)
	defer ts.Close()

	u := wire.EncodeQuery(dataspace.UniverseQuery(ds.Schema))
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		resp := postQuery(t, ts.URL, u)
		resp.Body.Close()
	}()
	waitFor(t, "slot occupied", func() bool { return h.InFlight() == 1 })

	c, err := httpclient.DialRetry(context.Background(), ts.URL, "tok", nil, httpclient.RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Answer(context.Background(), dataspace.UniverseQuery(c.Schema()))
		done <- err
	}()
	waitFor(t, "client shed at least once", func() bool { return front.shed.Load() >= 1 })
	close(gated.gate)
	<-blocked
	if err := <-done; err != nil {
		t.Fatalf("retry client did not ride out shedding: %v", err)
	}
	if h.Queries() != 2 {
		t.Errorf("paid queries = %d, want 2 (shed attempts must be free)", h.Queries())
	}
}
