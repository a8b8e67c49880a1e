package httpserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// replayAllocs is what one /query journal replay costs through
// Handler.ServeHTTP: the parsed query's predicate slice and the
// Content-Type header value. Before the handler parsed bodies with the
// wire codec it cost 21: json.Decoder and DecodeQuery on the body, and
// the admission's release closure.
const replayAllocs = 2

// TestQueryReplayAllocations pins the allocations of a /query that the
// caller's session answers from its journal: no query is paid, so what
// is left is the HTTP handler's own cost, request parsing included.
func TestQueryReplayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	h, ds := sessionHandler(t, 200, 10, session.Config{})
	body := wire.AppendQuery(nil, dataspace.UniverseQuery(ds.Schema).WithRange(1, 100, 900))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	serve() // paid; every later call replays
	allocs := testing.AllocsPerRun(100, serve)
	if h.Queries() != 1 {
		t.Fatalf("paid %d queries, want 1", h.Queries())
	}
	if allocs > replayAllocs {
		t.Errorf("a /query replay costs %v allocs, want at most %d", allocs, replayAllocs)
	}
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) { w.code = code }
