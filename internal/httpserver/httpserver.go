// Package httpserver exposes a hiddendb.Server over HTTP, emulating a real
// hidden database's web interface: clients learn the search form from
// GET /schema and submit form queries via POST /query, or a whole batch of
// them via POST /batch — B queries for one round trip, answered exactly as
// if they had been submitted to /query one by one. The paper's problem
// setup maps one-to-one onto the endpoints — a response carries at most k
// tuples plus the overflow signal, and repeating a query returns the same
// response.
//
// Request bodies are read into a pooled buffer under a size limit (1 MiB,
// 16 MiB for /batch) and parsed in one pass by the wire codec, which
// accepts exactly what encoding/json would. /query and /batch answers are
// appended into the same buffer and written in one Write, with the bytes
// encoding/json would write.
//
// # Per-client sessions
//
// The paper's cost model is per-client: real sites enforce their query
// budgets per IP or API key. The handler resolves every query-carrying
// request to the caller's session — keyed by the API token in the
// standard "Authorization: Bearer <token>" header (the Token field of the
// /batch and /crawl envelopes is a body-level fallback; requests without a
// token share the anonymous session). Each session owns a private quota
// and journal over the one shared store (see the session package;
// WithSessions configures the table), so:
//
//   - 429 and the quotaExceeded batch flag are per-token: one client
//     exhausting its budget never blocks another;
//   - query counters are per-token, and a query the session has already
//     paid for (a journal replay) is answered free of budget;
//   - with a journal directory, a session evicted by the TTL — the budget
//     window — persists its journal and reloads it when the token returns,
//     so a crawl resumes across budgets paying only for new queries.
//
// GET /stats reports the aggregate and per-session counters as a
// wire.StatsMsg, plus the store's per-access-path execution counts when
// the backing server exposes them. GET /metrics exposes the same introspection — plus the
// QoS counters: quota 429s, shed 503s by reason, the /batch width
// histogram, the in-flight depth — in the Prometheus text format, so a
// scraper needs no custom exporter (see metrics.go for the series). Both
// endpoints stay served while draining: observability must outlive
// admission.
//
// # The /crawl stream
//
// POST /crawl (body: wire.CrawlRequest) runs the requested crawling
// algorithm server-side against the caller's session and streams progress
// as NDJSON (Content-Type application/x-ndjson): one wire.CrawlEvent line
// per extracted tuple — the tuple plus the session's paid query count at
// that moment — and a single terminal line with Done set summarizing the
// crawl. A failure mid-crawl (typically the session's budget running dry)
// is reported on the terminal line, since the HTTP status is long
// committed; the queries already paid are journaled, so re-POSTing /crawl
// after the budget window resets fast-forwards for free and finishes the
// job.
//
// The crawl runs under the request's context: a client that disconnects
// mid-stream cancels its own crawl — only its session's in-flight work,
// never another token's — instead of leaving the server crawling for
// nobody. Everything answered before the hang-up is journaled, so the
// client's return costs only the queries that never ran.
//
// CrawlRequest.Skip is the resume cursor: a reconnecting client states how
// many tuples it already received, and the new stream suppresses that
// prefix — the journal replays the paid queries for free, the wire carries
// only tuples the client has not seen. Cursor resumption relies on the
// deterministic output order of the (same) algorithm.
//
// Every handler honours its request context: cancelled requests stop
// between queries, and a server Shutdown with a cancelled base context
// drains promptly even mid-/crawl.
package httpserver

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/index"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// Handler serves a hidden database over HTTP. It implements http.Handler.
type Handler struct {
	srv hiddendb.Server
	// cfg configures the session table New builds (see WithSessions).
	cfg session.Config
	// table holds the per-token sessions every query-carrying request
	// resolves through.
	table *session.Table
	// maxInFlight, when positive, sheds query-carrying requests beyond
	// this concurrency with 503 + Retry-After (see WithShedding).
	maxInFlight int
	// shedding also turns away new tokens when the session table is full,
	// instead of evicting an established client's session.
	shedding bool
	// draining flips when Drain is called: every new query-carrying
	// request is shed so in-flight ones can finish before Shutdown.
	draining atomic.Bool

	// QoS counters for GET /metrics, atomics so the scrape path never
	// contends with the serving path.
	quota429     atomic.Int64 // 429 responses
	shedCapacity atomic.Int64 // 503s from the in-flight bound
	shedDraining atomic.Int64 // 503s from drain mode
	shedFull     atomic.Int64 // 503s turning unseen tokens off a full session table
	// batchWidths histograms the /batch request widths into
	// batchWidthBounds buckets (the last counts widths beyond every
	// bound, Prometheus's +Inf); batchSum and batchCount carry the
	// histogram's _sum and _count series.
	batchWidths [len(batchWidthBounds) + 1]atomic.Int64
	batchSum    atomic.Int64
	batchCount  atomic.Int64

	mu sync.Mutex
	// inFlight counts the query-carrying requests currently being served.
	inFlight int
	// requests counts the query-carrying HTTP round trips served (/query,
	// /batch and /crawl alike) — the denominator of the batching win.
	requests int
}

// Option configures a Handler.
type Option func(*Handler)

// WithSessions configures the handler's session table: each token's quota,
// rate limit, TTL, journal directory and the fleet cache (see the session
// package and the package doc). Without it the table runs on the zero
// session.Config: unlimited budgets, no expiry, DefaultMaxSessions.
func WithSessions(cfg session.Config) Option {
	return func(h *Handler) { h.cfg = cfg }
}

// WithShedding bounds the query-carrying requests (/query, /batch,
// /crawl) served concurrently: beyond maxInFlight the handler answers
// 503 with a Retry-After hint instead of queueing unboundedly — an
// overloaded real site does the same, and a retry-enabled client backs
// off and tries again for free. It also turns away tokens it has never
// seen while the session table is full, protecting established clients'
// sessions (and their journals) from eviction churn. maxInFlight <= 0
// keeps requests unbounded but still enables the table-full protection.
func WithShedding(maxInFlight int) Option {
	return func(h *Handler) {
		h.maxInFlight = maxInFlight
		h.shedding = true
	}
}

// New builds a handler over the given server, with the session table every
// query-carrying request resolves through.
func New(srv hiddendb.Server, opts ...Option) *Handler {
	h := &Handler{srv: srv}
	for _, o := range opts {
		o(h)
	}
	h.table = session.NewTable(srv, h.cfg)
	return h
}

// Queries returns the number of paid form queries served so far, across
// all clients: live and evicted sessions alike (journal replays are free).
func (h *Handler) Queries() int { return h.table.TotalQueries() }

// Requests returns the number of query-carrying HTTP round trips served so
// far (/query, /batch and /crawl requests alike). With batching, Requests
// grows ~B× slower than Queries. A request shed or rejected before its
// session resolves is not served and not counted.
func (h *Handler) Requests() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.requests
}

// Sessions exposes the per-token session table.
func (h *Handler) Sessions() *session.Table { return h.table }

// Drain puts the handler into drain mode: every new query-carrying
// request is shed with 503 + Retry-After while requests already in
// flight run to completion, and /healthz reports not-ready so load
// balancers stop routing here. Call it before http.Server.Shutdown for
// a clean, bounded handover; draining is one-way.
func (h *Handler) Drain() { h.draining.Store(true) }

// InFlight returns the query-carrying requests currently being served.
func (h *Handler) InFlight() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inFlight
}

// shedReason distinguishes why a request was turned away: the Retry-After
// hint, the response body and the /metrics counter all depend on it.
type shedReason int

const (
	// shedCapacity is the transient in-flight bound: the overload clears
	// as soon as a slot frees, so the hint is short.
	shedCapacity shedReason = iota
	// shedDraining is the one-way drain before shutdown: this handler
	// will never be ready again at this address, so the hint tells the
	// client to stay away long enough for a restart (or a load-balancer
	// flip) rather than hammering a dying process.
	shedDraining
	// shedTableFull turns an unseen token off a full session table; like
	// capacity it clears when a session expires, so the hint stays short.
	shedTableFull
)

// drainRetryAfterSeconds is the Retry-After hint on drain sheds. Orders of
// magnitude above the capacity hint: retrying a draining server within a
// second is wasted load, since drain is one-way.
const drainRetryAfterSeconds = 30

// shed rejects a request the server cannot take on right now. 503 with
// Retry-After is the transient-overload signal: a retrying client backs
// off at least that long and loses nothing — the queries it will re-ask
// were either never served (paid once, later) or journaled (replayed
// free). The hint and body distinguish transient overload (retry in a
// second) from a one-way drain (come back after the restart).
func (h *Handler) shed(w http.ResponseWriter, reason shedReason) {
	hint, msg := "1", "server is at capacity"
	switch reason {
	case shedCapacity:
		h.shedCapacity.Add(1)
	case shedDraining:
		h.shedDraining.Add(1)
		hint, msg = strconv.Itoa(drainRetryAfterSeconds), "server is draining"
	case shedTableFull:
		h.shedFull.Add(1)
		msg = "session table full"
	}
	w.Header().Set("Retry-After", hint)
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// reject429 answers a quota rejection, counting it for /metrics.
func (h *Handler) reject429(w http.ResponseWriter) {
	h.quota429.Add(1)
	http.Error(w, "query quota exceeded", http.StatusTooManyRequests)
}

// batchWidthBounds are the histogram bucket upper bounds for /batch
// request widths (each bucket is cumulative, Prometheus-style).
var batchWidthBounds = [...]int{1, 2, 4, 8, 16, 32, 64, 128}

// noteBatchWidth records one /batch request of n queries.
func (h *Handler) noteBatchWidth(n int) {
	for i, le := range batchWidthBounds {
		if n <= le {
			h.batchWidths[i].Add(1)
		}
	}
	h.batchWidths[len(batchWidthBounds)].Add(1) // +Inf
	h.batchSum.Add(int64(n))
	h.batchCount.Add(1)
}

// admit gates one query-carrying request through the overload controls:
// a draining handler sheds everything new, and with WithShedding the
// in-flight depth is bounded. On admission leave must be deferred; false
// means the 503 is already written.
func (h *Handler) admit(w http.ResponseWriter) bool {
	if h.draining.Load() {
		h.shed(w, shedDraining)
		return false
	}
	h.mu.Lock()
	if h.maxInFlight > 0 && h.inFlight >= h.maxInFlight {
		h.mu.Unlock()
		h.shed(w, shedCapacity)
		return false
	}
	h.inFlight++
	h.mu.Unlock()
	return true
}

// leave ends an admitted request.
func (h *Handler) leave() {
	h.mu.Lock()
	h.inFlight--
	h.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/schema" && r.Method == http.MethodGet:
		h.handleSchema(w)
	case r.URL.Path == "/query" && r.Method == http.MethodPost:
		h.handleQuery(w, r)
	case r.URL.Path == "/batch" && r.Method == http.MethodPost:
		h.handleBatch(w, r)
	case r.URL.Path == "/crawl" && r.Method == http.MethodPost:
		h.handleCrawl(w, r)
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		h.handleStats(w)
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		h.handleMetrics(w)
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		h.handleHealthz(w)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// handleHealthz reports liveness and readiness. The process serving the
// response is by definition live; readiness flips off when the handler
// is draining, with the 503 status carrying the same signal to probes
// that only read status codes. The drain flag is loaded exactly once —
// deriving Ready and Draining from two loads would let a drain flipping
// between them report the contradictory Ready && Draining.
func (h *Handler) handleHealthz(w http.ResponseWriter) {
	draining := h.draining.Load()
	h.mu.Lock()
	inFlight := h.inFlight
	h.mu.Unlock()
	status := struct {
		Live     bool `json:"live"`
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
		InFlight int  `json:"inFlight"`
		Sessions int  `json:"sessions"`
	}{
		Live:     true,
		Ready:    !draining,
		Draining: draining,
		InFlight: inFlight,
		Sessions: h.table.Len(),
	}
	w.Header().Set("Content-Type", "application/json")
	if !status.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(status)
}

func (h *Handler) handleSchema(w http.ResponseWriter) {
	writeJSON(w, wire.EncodeSchema(h.srv.Schema(), h.srv.K()))
}

// resolveSession returns the caller's session and counts the request as
// served. The token comes from the Authorization: Bearer header, falling
// back to the request body's Token field; an empty token is the shared
// anonymous session.
func (h *Handler) resolveSession(w http.ResponseWriter, r *http.Request, bodyToken string) (*session.Session, bool) {
	token := wire.Bearer(r.Header)
	if token == "" {
		token = bodyToken
	}
	// A shedding server at its session cap turns new tokens away rather
	// than evicting an established client's session (and journal) to make
	// room — churn would silently cost evicted clients their replay state.
	if h.shedding && h.table.Full() && !h.table.Has(token) {
		h.shed(w, shedTableFull)
		return nil, false
	}
	sess, err := h.table.Get(token)
	if err != nil {
		http.Error(w, "session error: "+err.Error(), http.StatusInternalServerError)
		return nil, false
	}
	h.mu.Lock()
	h.requests++
	h.mu.Unlock()
	return sess, true
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !h.admit(w) {
		return
	}
	defer h.leave()
	buf, err := readBody(w, r, 1<<20)
	defer releaseBuf(buf)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	q, err := wire.ParseQuery(h.srv.Schema(), *buf)
	if err != nil {
		badRequest(w, "bad query: ", err)
		return
	}
	sess, ok := h.resolveSession(w, r, "")
	if !ok {
		return
	}
	res, err := sess.Server().Answer(r.Context(), q)
	switch {
	case errors.Is(err, hiddendb.ErrQuotaExceeded):
		h.reject429(w)
	case err != nil:
		http.Error(w, "server error: "+err.Error(), http.StatusInternalServerError)
	default:
		writeAnswer(w, buf, func(b []byte) []byte { return wire.AppendResult(b, res) })
	}
}

// handleBatch answers B form queries in one round trip, with exactly the
// per-query semantics of /query: the caller's quota admits the longest
// affordable prefix, and a batch cut short (by quota or by a server
// failure) reports the answered prefix — which was paid for and must not
// be discarded — plus the quotaExceeded flag or the error, respectively.
// A batch that could not start at all gets /query's 429 or 500.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !h.admit(w) {
		return
	}
	defer h.leave()
	buf, err := readBody(w, r, 16<<20)
	defer releaseBuf(buf)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	qs, token, err := wire.ParseBatchRequest(h.srv.Schema(), *buf)
	if err != nil {
		badRequest(w, "bad batch: ", err)
		return
	}
	if len(qs) == 0 {
		http.Error(w, "bad batch: empty", http.StatusBadRequest)
		return
	}
	sess, ok := h.resolveSession(w, r, token)
	if !ok {
		return
	}
	h.noteBatchWidth(len(qs))

	res, err := sess.Server().AnswerBatch(r.Context(), qs)
	quotaHit := errors.Is(err, hiddendb.ErrQuotaExceeded)
	if err != nil && len(res) == 0 {
		if quotaHit {
			h.reject429(w)
		} else {
			http.Error(w, "server error: "+err.Error(), http.StatusInternalServerError)
		}
		return
	}
	serverErr := ""
	if err != nil && !quotaHit {
		serverErr = err.Error()
	}
	writeAnswer(w, buf, func(b []byte) []byte { return wire.AppendBatchResponse(b, res, quotaHit, serverErr) })
}

// handleCrawl runs a crawling algorithm server-side against the caller's
// session and streams (tuple, paid-queries-so-far) progress as NDJSON —
// the whole extraction for the price of one round trip. The crawl runs
// under r.Context(): a disconnecting client cancels its own crawl (and
// nothing else — the shared store serves other sessions' requests under
// their own contexts). CrawlRequest.Skip suppresses the stream's first
// Skip tuples for reconnecting clients. See the package doc.
func (h *Handler) handleCrawl(w http.ResponseWriter, r *http.Request) {
	if !h.admit(w) {
		return
	}
	defer h.leave()
	buf, err := readBody(w, r, 1<<20)
	var msg wire.CrawlRequest
	if err == nil {
		msg, err = wire.ParseCrawlRequest(*buf)
	}
	releaseBuf(buf)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if msg.Skip < 0 {
		http.Error(w, "bad request: negative skip cursor", http.StatusBadRequest)
		return
	}
	crawler := core.ForSchema(h.srv.Schema())
	if msg.Algorithm != "" {
		var err error
		crawler, err = core.ByName(msg.Algorithm)
		if err != nil {
			http.Error(w, "bad algorithm: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	sess, ok := h.resolveSession(w, r, msg.Token)
	if !ok {
		return
	}
	// Counter values before the crawl, so the terminal line reports this
	// crawl's deltas rather than session-lifetime totals.
	replays0 := sess.Replays()
	sharedHits0, sharedWaits0 := sess.SharedHits(), sess.SharedWaits()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}

	// A vanished client cancels r.Context(), which aborts the crawl at
	// the next query boundary; everything answered before the hang-up is
	// journaled in the caller's session, so the work is never wasted —
	// the client replays it for free on its next attempt (and skips the
	// re-delivery with the resume cursor). Encoding errors alone are
	// ignored: the context is the disconnection signal.
	tuplesSent, toSkip := 0, msg.Skip
	opts := &core.Options{
		OnTuples: func(tuples dataspace.Bag) {
			n := sess.Queries()
			for _, t := range tuples {
				if toSkip > 0 {
					toSkip--
					continue
				}
				enc.Encode(wire.CrawlEvent{Tuple: t, Queries: n})
				tuplesSent++
			}
		},
		// A crawl can outlive the session TTL while being perfectly
		// active; touching per paid query keeps the table from evicting
		// a session that is mid-extraction.
		OnProgress: func(core.CurvePoint) {
			h.table.Touch(sess.Token())
			flush()
		},
	}

	// A core crawler returns its books even when it fails, so the
	// partial Result's outcome split is reported too.
	res, err := crawler.Crawl(r.Context(), sess.Server(), opts)
	final := wire.CrawlEvent{
		Done:        true,
		Queries:     sess.Queries(),
		Resolved:    res.Resolved,
		Overflowed:  res.Overflowed,
		Tuples:      tuplesSent,
		Skipped:     msg.Skip - toSkip,
		Replays:     sess.Replays() - replays0,
		SharedHits:  sess.SharedHits() - sharedHits0,
		SharedWaits: sess.SharedWaits() - sharedWaits0,
		Engine:      h.engineStats(),
	}
	if err != nil {
		final.Error = err.Error()
		final.QuotaExceeded = errors.Is(err, hiddendb.ErrQuotaExceeded)
	}
	enc.Encode(final)
	flush()
}

// handleStats reports the aggregate and per-session counters.
func (h *Handler) handleStats(w http.ResponseWriter) {
	msg := wire.StatsMsg{
		Queries:         h.table.TotalQueries(),
		Requests:        h.Requests(),
		Sessions:        h.table.Stats(),
		EvictedSessions: h.table.Evicted(),
	}
	if sc := h.table.SharedCache(); sc != nil {
		st := sc.Stats()
		msg.SharedCache = &wire.SharedCacheStatsMsg{
			Hits:      st.Hits,
			Waits:     st.Waits,
			Leads:     st.Leads,
			Entries:   st.Entries,
			Bytes:     st.Bytes,
			Evictions: st.Evictions,
			InFlight:  st.InFlight,
		}
	}
	if ps, ok := h.srv.(interface{ PlanStats() index.PlanStats }); ok {
		msg.Planner = &wire.PlannerStatsMsg{Paths: ps.PlanStats().Paths}
	}
	msg.Engine = h.engineStats()
	writeJSON(w, msg)
}

// engineStats reports the backing server's engine identity, or nil when
// the server does not expose it (a remote proxy).
func (h *Handler) engineStats() *wire.EngineStatsMsg {
	es, ok := h.srv.(interface{ EngineStats() index.EngineStats })
	if !ok {
		return nil
	}
	return &wire.EngineStatsMsg{Kind: es.EngineStats().Kind}
}

// maxPooledBuf bounds the buffers bufs keeps, so one huge request or
// answer does not pin its buffer for the life of the process.
const maxPooledBuf = 1 << 20

// bufs recycles the buffers request bodies are read into and /query and
// /batch answers are appended into: a request's answer reuses its body's
// buffer, since the parsed request never references it.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads the request body, at most limit bytes of it, into a
// pooled buffer, which the caller releases with releaseBuf. (A
// bytes.Buffer around the pooled slice would cost an allocation.)
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*[]byte, error) {
	buf := bufs.Get().(*[]byte)
	b, body := (*buf)[:0], http.MaxBytesReader(w, r.Body, limit)
	for {
		b = slices.Grow(b, 512)
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

func releaseBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		bufs.Put(buf)
	}
}

// badRequest answers 400 to a request body the wire parser rejected:
// "bad request: " for malformed bytes, prefix for a well-formed message
// the schema rejects.
func badRequest(w http.ResponseWriter, prefix string, err error) {
	if errors.Is(err, wire.ErrMalformed) {
		prefix = "bad request: "
	}
	http.Error(w, prefix+err.Error(), http.StatusBadRequest)
}

// writeAnswer writes a /query or /batch answer, which appendBody appends
// into buf in place of the request body, in one Write. The bytes are those
// writeJSON writes for the message struct (see the wire codec).
func writeAnswer(w http.ResponseWriter, buf *[]byte, appendBody func([]byte) []byte) {
	*buf = appendBody((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.Write(*buf)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do than drop the
		// connection, which the encoder error already implies.
		return
	}
}
