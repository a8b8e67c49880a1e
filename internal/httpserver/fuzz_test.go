package httpserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hidb/internal/core"
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
			for _, qm := range msg.Queries {
				if _, refErr = wire.DecodeQuery(sch, qm); refErr != nil {
					break
				}
			}
			if queries = len(msg.Queries); refErr == nil && queries == 0 {
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

// fuzzHandler is a handler with an unlimited quota, so every
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

// FuzzServeCrawl posts arbitrary bodies to /crawl on a default handler (no
// options: the anonymous session and every body token get an unlimited
// budget) over a tiny dataset. The contract: no panic and no 5xx; a 400
// exactly for the bodies the handler rejects — a JSON error other than an
// empty body, a negative skip cursor, an unknown algorithm — or for a body
// over the 1 MiB limit; and every 200 is an NDJSON stream of tuple lines
// closed by exactly one done line, which counts those lines and never
// reports more tuples streamed plus skipped than the table holds.
func FuzzServeCrawl(f *testing.F) {
	for _, s := range []string{``, `{}`, `{"skip":-1}`, `{"skip":3}`, `{"skip":1e18}`, `{"algorithm":"nope"}`} {
		f.Add([]byte(s))
	}
	for _, name := range core.Names() {
		f.Add([]byte(`{"algorithm":"` + name + `"}`))
	}
	f.Add([]byte(`{"token":"` + strings.Repeat("t", 64<<10) + `"}`))
	f.Add([]byte(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}`))
	base, ds := sessionHandler(f, 40, 5, session.Config{})
	h := New(base.srv)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/crawl", bytes.NewReader(body)))

		var msg wire.CrawlRequest
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&msg)
		if errors.Is(refErr, io.EOF) {
			refErr = nil
		}
		if refErr == nil && msg.Skip < 0 {
			refErr = errors.New("negative skip")
		}
		if refErr == nil && msg.Algorithm != "" {
			_, refErr = core.ByName(msg.Algorithm)
		}

		switch rec.Code {
		case http.StatusOK:
			if refErr != nil {
				t.Fatalf("POST /crawl answered 200 to a body the handler rejects (%v): %.200q", refErr, body)
			}
		case http.StatusBadRequest:
			if refErr == nil && len(body) <= 1<<20 {
				t.Fatalf("POST /crawl answered 400 to a well-formed body: %s\n%.200q", rec.Body, body)
			}
			return
		default:
			t.Fatalf("POST /crawl answered %d: %s\n%.200q", rec.Code, rec.Body, body)
		}

		if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("200 /crawl content type %q", ct)
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		for i, line := range lines {
			var ev wire.CrawlEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("line %d is not JSON (%v): %.200q", i, err, line)
			}
			if last := i == len(lines)-1; ev.Done != last {
				t.Fatalf("line %d of %d: done=%v; want exactly one done line, last", i, len(lines), ev.Done)
			}
			if !ev.Done {
				continue
			}
			if ev.Tuples != len(lines)-1 {
				t.Fatalf("done line counts %d tuples, stream carried %d", ev.Tuples, len(lines)-1)
			}
			if ev.Tuples+ev.Skipped > ds.N() {
				t.Fatalf("done line: %d tuples + %d skipped exceeds n=%d", ev.Tuples, ev.Skipped, ds.N())
			}
		}
	})
}
