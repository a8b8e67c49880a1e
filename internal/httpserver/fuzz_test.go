package httpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// hostilePreds are predicate lists for the fuzz handler's schema (one
// categorical attribute of domain 4, one numeric): the edge-case classes
// a request decoder must turn into a 400 or a valid answer, never a panic
// or a 5xx.
func hostilePreds() []string {
	ints := func(lo, hi int64) string {
		return fmt.Sprintf(`[{"wild":true},{"lo":%d,"hi":%d}]`, lo, hi)
	}
	return []string{
		`[{"wild":true},{}]`,
		`[{"value":2},{"lo":10,"hi":20}]`,
		ints(dataspace.NegInf, dataspace.PosInf),
		ints(dataspace.NegInf-1, 0),
		ints(0, dataspace.PosInf+1),
		ints(math.MinInt64, math.MaxInt64),
		ints(20, 10),
		`[{"value":0},{}]`,
		`[{"value":5},{}]`,
		`[{"value":-1},{}]`,
		`[{"wild":true,"value":2},{}]`,
		`[{"wild":false},{}]`,
		`[{},{}]`,
		`[{"wild":true},{"wild":true}]`,
		`[{"wild":true},{"value":3}]`,
		`[{"wild":true},{"lo":1.5}]`,
		`[{"wild":true},{"lo":"1"}]`,
		`[{"wild":true},{"lo":null,"hi":null}]`,
		`[]`,
		`[{"wild":true}]`,
		`[{"wild":true},{},{}]`,
		`null`,
		"[" + strings.Repeat(`{"wild":true},`, 9999) + `{"wild":true}]`, // arity 10k
	}
}

// checkServe posts body to path and checks the contract every request
// decoder keeps on hostile bytes: no panic (ServeHTTP runs inline), only
// 200 or 400 from an unlimited session; 400 for every body encoding/json
// plus the wire converters reject; and every 200 answer parses with the
// wire parsers, validates, and answers each query exactly once.
func checkServe(t *testing.T, h *Handler, path string, limit int, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

	// The reference: what the handler's decoders accept, without its
	// body-size limit.
	sch := h.srv.Schema()
	dec := json.NewDecoder(bytes.NewReader(body))
	queries, refErr := 1, error(nil)
	if path == "/query" {
		var msg wire.QueryMsg
		if refErr = dec.Decode(&msg); refErr == nil {
			_, refErr = wire.DecodeQuery(sch, msg)
		}
	} else {
		var msg wire.BatchRequest
		if refErr = dec.Decode(&msg); refErr == nil {
			var qs []dataspace.Query
			qs, refErr = wire.DecodeBatchRequest(sch, msg)
			if queries = len(qs); refErr == nil && queries == 0 {
				refErr = fmt.Errorf("empty batch")
			}
		}
	}

	switch rec.Code {
	case http.StatusOK:
		if refErr != nil {
			t.Fatalf("POST %s answered 200 to a body the decoders reject (%v): %.200q", path, refErr, body)
		}
		if path == "/query" {
			if _, err := wire.ParseResult(sch, rec.Body.Bytes()); err != nil {
				t.Fatalf("POST %s: 200 answer does not parse: %v", path, err)
			}
			return
		}
		rs, quota, serverErr, err := wire.ParseBatchResponse(sch, rec.Body.Bytes())
		if err != nil || quota || serverErr != "" || len(rs) != queries {
			t.Fatalf("POST %s: 200 answer: %d results for %d queries, quota %v, error %q, parse error %v",
				path, len(rs), queries, quota, serverErr, err)
		}
	case http.StatusBadRequest:
		if refErr == nil && len(body) <= limit {
			t.Fatalf("POST %s answered 400 to a well-formed body: %s\n%.200q", path, rec.Body, body)
		}
	default:
		t.Fatalf("POST %s answered %d: %s\n%.200q", path, rec.Code, rec.Body, body)
	}
}

// fuzzHandler is a session-mode handler with an unlimited quota, so every
// well-formed request is answered.
func fuzzHandler(f *testing.F) *Handler {
	h, _ := sessionHandler(f, 200, 10, session.Config{})
	return h
}

// FuzzServeQuery posts arbitrary bodies to /query.
func FuzzServeQuery(f *testing.F) {
	for _, p := range hostilePreds() {
		f.Add([]byte(`{"preds":` + p + `}`))
	}
	for _, s := range []string{``, `{}`, `null`, `[]`, `{"preds":[{"wild":true},{}]} trailing`, `{"preds":[{"wild":true},{}]`, "\x00"} {
		f.Add([]byte(s))
	}
	// Over the 1 MiB /query limit.
	f.Add([]byte(`{"pad":"` + strings.Repeat("x", 1<<20) + `","preds":[{"wild":true},{}]}`))
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkServe(t, h, "/query", 1<<20, body)
	})
}

// FuzzServeBatch posts arbitrary bodies to /batch.
func FuzzServeBatch(f *testing.F) {
	preds := hostilePreds()
	for _, p := range preds {
		f.Add([]byte(`{"queries":[{"preds":` + p + `}]}`))
	}
	f.Add([]byte(`{"queries":[{"preds":` + preds[0] + `},{"preds":` + preds[1] + `},{"preds":` + preds[2] + `}],"token":"t"}`))
	f.Add([]byte(`{"queries":[{"preds":` + preds[0] + `},{"preds":` + preds[6] + `}]}`))
	for _, s := range []string{`{"queries":[]}`, `{"queries":null}`, `{}`, ``, `null`, `{"queries":[null]}`, `{"queries":{}}`} {
		f.Add([]byte(s))
	}
	// Over the /query limit, well inside /batch's 16 MiB.
	f.Add([]byte(`{"pad":"` + strings.Repeat("x", 1<<20) + `","queries":[{"preds":` + preds[0] + `}]}`))
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkServe(t, h, "/batch", 16<<20, body)
	})
}
