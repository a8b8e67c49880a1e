package httpserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/simrand"
	"hidb/internal/wire"
)

func postBatch(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBatch(t *testing.T, resp *http.Response) wire.BatchResponse {
	t.Helper()
	defer resp.Body.Close()
	var msg wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	return msg
}

// testBatch builds a mixed query batch over the handler's schema.
func testBatch(sch *dataspace.Schema, n int, seed uint64) []dataspace.Query {
	rng := simrand.New(seed)
	qs := make([]dataspace.Query, n)
	for i := range qs {
		q := dataspace.UniverseQuery(sch)
		if rng.Bool(0.5) {
			q = q.WithValue(0, rng.IntRange(1, 4))
		}
		if rng.Bool(0.7) {
			lo := rng.IntRange(0, 900)
			q = q.WithRange(1, lo, lo+rng.IntRange(0, 100))
		}
		qs[i] = q
	}
	return qs
}

// TestBatchEquivalence is the endpoint's contract: one POST /batch with N
// queries returns byte-for-byte the N responses that N POST /query round
// trips produce, at the same query cost but for one request. The batch
// runs on a fresh token: on the same session every query would replay.
func TestBatchEquivalence(t *testing.T) {
	h, ds := testHandler(t, 400, 10, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := testBatch(ds.Schema, 12, 51)
	single := make([]wire.ResultMsg, len(qs))
	for i, q := range qs {
		resp := postQuery(t, ts.URL, wire.EncodeQuery(q))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single query %d: %s", i, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&single[i]); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	requestsBefore, singlesCost := h.Requests(), h.Queries()

	resp := postBatchToken(t, ts.URL, "batcher", wire.AppendBatchRequest(nil, qs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", resp.Status)
	}
	msg := decodeBatch(t, resp)
	if msg.QuotaExceeded {
		t.Fatal("unquota'd batch flagged quotaExceeded")
	}
	if len(msg.Results) != len(qs) {
		t.Fatalf("batch answered %d of %d", len(msg.Results), len(qs))
	}
	for i := range qs {
		got, _ := json.Marshal(msg.Results[i])
		want, _ := json.Marshal(single[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("batch result %d differs from /query:\n got %s\nwant %s", i, got, want)
		}
	}
	// Each session pays once per distinct query; a repeat inside qs replays.
	distinct := make(map[string]bool, len(qs))
	for _, q := range qs {
		distinct[q.Key()] = true
	}
	if singlesCost != len(distinct) {
		t.Errorf("singles paid %d queries, want %d distinct", singlesCost, len(distinct))
	}
	if batchCost := h.Queries() - singlesCost; batchCost != len(distinct) {
		t.Errorf("batch paid %d queries, want %d distinct", batchCost, len(distinct))
	}
	if h.Requests() != requestsBefore+1 {
		t.Errorf("batch counted %d requests, want 1", h.Requests()-requestsBefore)
	}
}

// TestBatchMalformed: malformed batches are rejected whole with 400 and
// consume no quota — no partial answering of a broken request.
func TestBatchMalformed(t *testing.T) {
	h, ds := testHandler(t, 50, 10, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Broken JSON.
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: %s, want 400", resp.Status)
	}

	// Empty batch.
	resp = postBatch(t, ts.URL, []byte(`{"queries":null}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %s, want 400", resp.Status)
	}

	// One malformed query (wrong arity) poisons the whole batch, even when
	// the other queries are fine.
	good := string(wire.AppendQuery(nil, dataspace.UniverseQuery(ds.Schema)))
	resp = postBatch(t, ts.URL, []byte(`{"queries":[`+good+`,{"preds":[{"wild":true}]},`+good+`]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad arity mid-batch: %s, want 400", resp.Status)
	}

	// A categorical predicate setting both wild and value is invalid too.
	resp = postBatch(t, ts.URL, []byte(`{"queries":[{"preds":[{"wild":true,"value":2},{}]}]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wild+value predicate: %s, want 400", resp.Status)
	}

	// GET /batch is not a thing.
	resp, err = http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /batch: %s, want 404", resp.Status)
	}

	if h.Queries() != 0 || h.Requests() != 0 {
		t.Errorf("malformed batches were counted: %d queries, %d requests", h.Queries(), h.Requests())
	}
}

// TestBatchQuotaMidBatch: a batch that overruns the session's quota is
// answered up to the budget and flagged, and a next batch or query of new
// queries gets 429 — batching cannot stretch a per-client budget — while
// the paid prefix still replays for free.
func TestBatchQuotaMidBatch(t *testing.T) {
	h, ds := testHandler(t, 200, 10, 5)
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 10)
	resp := postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs[:8]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch: %s", resp.Status)
	}
	msg := decodeBatch(t, resp)
	if !msg.QuotaExceeded {
		t.Fatal("over-budget batch not flagged quotaExceeded")
	}
	if len(msg.Results) != 5 {
		t.Fatalf("answered %d queries, want the 5-query budget", len(msg.Results))
	}
	if h.Queries() != 5 {
		t.Fatalf("handler counted %d queries, want 5", h.Queries())
	}

	// Budget spent: the next batch is rejected outright.
	resp = postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs[8:]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-budget batch: %s, want 429", resp.Status)
	}
	// And so is a single query.
	resp = postQuery(t, ts.URL, wire.EncodeQuery(qs[9]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-budget query: %s, want 429", resp.Status)
	}
	// The paid prefix is journaled: it replays in full, unflagged.
	msg = decodeBatch(t, postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs[:5])))
	if msg.QuotaExceeded || len(msg.Results) != 5 {
		t.Fatalf("replayed prefix: %d results, flag=%v; want 5 unflagged", len(msg.Results), msg.QuotaExceeded)
	}
}

// TestInnerQuotaConsistentAcrossEndpoints: when the wrapped server itself
// enforces a budget (hiddendb.Quota below the handler), /query and /batch
// surface it identically — 429 when nothing could be served, the
// quotaExceeded flag on a cut-short batch — with only the served queries
// counted.
func TestInnerQuotaConsistentAcrossEndpoints(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          100,
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
	h := New(hiddendb.NewQuota(local, 2))
	ts := httptest.NewServer(h)
	defer ts.Close()

	qs := distinctBatch(ds.Schema, 5)
	for i := 0; i < 2; i++ {
		resp := postQuery(t, ts.URL, wire.EncodeQuery(qs[i]))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-budget query %d: %s", i, resp.Status)
		}
	}
	resp := postQuery(t, ts.URL, wire.EncodeQuery(qs[2]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("inner quota via /query: %s, want 429", resp.Status)
	}
	if h.Queries() != 2 {
		t.Fatalf("handler counted %d queries, want the 2 served", h.Queries())
	}

	// Same exhaustion through /batch: nothing served is a 429 too...
	resp = postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs[3:5]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("inner quota via /batch: %s, want 429", resp.Status)
	}
	// ...and a batch whose first query replays is cut short and flagged.
	msg := decodeBatch(t, postBatch(t, ts.URL, wire.AppendBatchRequest(nil, []dataspace.Query{qs[0], qs[3]})))
	if !msg.QuotaExceeded || len(msg.Results) != 1 {
		t.Fatalf("batch on spent inner budget: %d results, flag=%v; want 1 + flag", len(msg.Results), msg.QuotaExceeded)
	}
	if h.Queries() != 2 {
		t.Fatalf("handler counted %d queries after failed batches, want 2", h.Queries())
	}
}

// TestBatchExactBudget: a batch that exactly matches the remaining budget
// is served in full with no flag.
func TestBatchExactBudget(t *testing.T) {
	h, ds := testHandler(t, 200, 10, 4)
	ts := httptest.NewServer(h)
	defer ts.Close()
	qs := testBatch(ds.Schema, 4, 55)
	msg := decodeBatch(t, postBatch(t, ts.URL, wire.AppendBatchRequest(nil, qs)))
	if msg.QuotaExceeded {
		t.Error("exact-budget batch flagged quotaExceeded")
	}
	if len(msg.Results) != 4 {
		t.Errorf("answered %d of 4", len(msg.Results))
	}
}
