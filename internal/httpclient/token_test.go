package httpclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/wire"
)

// stubServer serves a fixed schema, an empty /query answer and a scripted
// /batch response, and records each request's path and Authorization
// header.
func stubServer(t *testing.T, sch *dataspace.Schema, k int, batch wire.BatchResponse) (*httptest.Server, *[]string) {
	t.Helper()
	var seen []string
	answers := map[string]any{"/schema": wire.EncodeSchema(sch, k), "/query": wire.ResultMsg{}, "/batch": batch}
	mux := http.NewServeMux()
	for path, answer := range answers {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			seen = append(seen, path+" "+r.Header.Get("Authorization"))
			json.NewEncoder(w).Encode(answer)
		})
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &seen
}

// TestTokenRidesEveryRequest: DialToken stamps Authorization: Bearer on
// the schema fetch and every query-carrying request. A one-query batch
// goes over /query.
func TestTokenRidesEveryRequest(t *testing.T) {
	sch := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "x", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
	ts, seen := stubServer(t, sch, 5, wire.BatchResponse{Results: []wire.ResultMsg{{}}})
	c, err := DialToken(context.Background(), ts.URL, "secret-tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnswerBatch(context.Background(), []dataspace.Query{dataspace.UniverseQuery(sch)}); err != nil {
		t.Fatal(err)
	}
	if len(*seen) != 2 {
		t.Fatalf("saw %d requests, want 2", len(*seen))
	}
	for i, want := range []string{"/schema Bearer secret-tok", "/query Bearer secret-tok"} {
		if (*seen)[i] != want {
			t.Errorf("request %d = %q, want %q", i, (*seen)[i], want)
		}
	}
}

// TestBatchErrorDeliversPrefix: a BatchResponse carrying an Error is the
// answered-prefix-plus-error contract on the wire — the client must hand
// back the prefix with a non-quota error.
func TestBatchErrorDeliversPrefix(t *testing.T) {
	sch := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "x", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
	ts, _ := stubServer(t, sch, 5, wire.BatchResponse{
		Results: []wire.ResultMsg{{Tuples: [][]int64{{7}}}},
		Error:   "backend on fire",
	})
	c, err := Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)
	res, err := c.AnswerBatch(context.Background(), []dataspace.Query{u, u, u})
	if err == nil || !strings.Contains(err.Error(), "backend on fire") {
		t.Fatalf("err = %v, want the server's failure", err)
	}
	if len(res) != 1 || len(res[0].Tuples) != 1 || res[0].Tuples[0][0] != 7 {
		t.Fatalf("prefix = %+v, want the single answered result", res)
	}
}

// TestBatchRejectsOversizeResponse: a /batch answer with more results than
// the batch had queries is not an answered prefix, whatever flag rides
// with it. It must fail without results, never reach the caller (whose
// progress accounting sizes by len(results)) as a quota-cut prefix.
func TestBatchRejectsOversizeResponse(t *testing.T) {
	sch := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "x", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
	three := []wire.ResultMsg{{Tuples: [][]int64{{1}}}, {Tuples: [][]int64{{2}}}, {Tuples: [][]int64{{3}}}}
	for name, resp := range map[string]wire.BatchResponse{
		"quotaExceeded": {Results: three, QuotaExceeded: true},
		"error":         {Results: three, Error: "backend on fire"},
		"no flag":       {Results: three},
	} {
		t.Run(name, func(t *testing.T) {
			ts, _ := stubServer(t, sch, 5, resp)
			c, err := Dial(context.Background(), ts.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			u := dataspace.UniverseQuery(sch)
			res, err := c.AnswerBatch(context.Background(), []dataspace.Query{u, u})
			if err == nil || errors.Is(err, hiddendb.ErrQuotaExceeded) || res != nil {
				t.Fatalf("3 results for 2 queries: got %d results, err %v; want none and a non-quota error", len(res), err)
			}
		})
	}
}
