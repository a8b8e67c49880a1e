package httpserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// testHandler builds a handler over a fresh random dataset whose every
// session, the anonymous one included, has the given query budget (0 is
// unlimited).
func testHandler(t *testing.T, n, k, quota int) (*Handler, *datagen.Dataset) {
	t.Helper()
	return sessionHandler(t, n, k, session.Config{Quota: quota})
}

func TestSchemaEndpoint(t *testing.T) {
	h, ds := testHandler(t, 100, 10, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var msg wire.SchemaMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	sch, k, err := wire.DecodeSchema(msg)
	if err != nil {
		t.Fatal(err)
	}
	if k != 10 || sch.String() != ds.Schema.String() {
		t.Fatalf("schema mismatch: k=%d %s", k, sch)
	}
}

func postQuery(t *testing.T, url string, msg wire.QueryMsg) *http.Response {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestQueryEndpoint(t *testing.T) {
	h, ds := testHandler(t, 300, 10, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	u := dataspace.UniverseQuery(ds.Schema)
	resp := postQuery(t, ts.URL, wire.EncodeQuery(u))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var msg wire.ResultMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if !msg.Overflow || len(msg.Tuples) != 10 {
		t.Fatalf("universe over 300 tuples: overflow=%v len=%d", msg.Overflow, len(msg.Tuples))
	}
	if h.Queries() != 1 {
		t.Fatalf("handler counted %d queries", h.Queries())
	}
}

func TestBadRequests(t *testing.T) {
	h, ds := testHandler(t, 50, 10, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %s", resp.Status)
	}

	// Wrong arity.
	resp = postQuery(t, ts.URL, wire.QueryMsg{Preds: []wire.Pred{{Wild: true}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad arity: status %s", resp.Status)
	}

	// Unknown path and method.
	resp, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /query: status %s", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/nothing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nothing: status %s", resp.Status)
	}

	// Bad requests must not consume quota/counters.
	if h.Queries() != 0 {
		t.Errorf("bad requests were counted: %d", h.Queries())
	}
	_ = ds
}

func TestHealthz(t *testing.T) {
	h, _ := testHandler(t, 10, 5, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %s", resp.Status)
	}
}

// TestQuotaEnforced: the anonymous session's budget admits exactly quota
// distinct queries; past it a new query gets 429, while a query already
// paid for is still answered — a free journal replay.
func TestQuotaEnforced(t *testing.T) {
	h, ds := testHandler(t, 100, 10, 3)
	ts := httptest.NewServer(h)
	defer ts.Close()
	qs := distinctBatch(ds.Schema, 4)
	for i := 0; i < 3; i++ {
		resp := postQuery(t, ts.URL, wire.EncodeQuery(qs[i]))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-budget query %d: %s", i, resp.Status)
		}
	}
	resp := postQuery(t, ts.URL, wire.EncodeQuery(qs[3]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget query: %s, want 429", resp.Status)
	}
	resp = postQuery(t, ts.URL, wire.EncodeQuery(qs[0]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("already-paid query after the budget ran out: %s, want a 200 replay", resp.Status)
	}
	if h.Queries() != 3 {
		t.Fatalf("paid queries = %d, want the 3-query budget", h.Queries())
	}
}
