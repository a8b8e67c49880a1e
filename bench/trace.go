package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/index"
)

// layer names one rung of the crawl stack, outermost first. A span of
// layer L is always nested inside a span of some layer above it, which is
// what lets self time be computed from per-layer sums.
type layer uint8

const (
	lCrawl     layer = iota // one crawl (or fleet round), the trace's root
	lClient                 // the crawler's call into its server
	lRoundTrip              // one HTTP exchange on the client transport
	lHandler                // the server's HTTP handler
	lLocal                  // hiddendb.Local: Answer or AnswerBatch
	lEngine                 // the index engine: Select or SelectBatch
	numLayers
)

// layerNames are the module names the per-layer metrics are reported under.
var layerNames = [numLayers]string{"core", "httpclient", "loopback", "httpserver", "hiddendb", "index"}

// MarshalText writes the layer's module name into --trace-out files.
func (l layer) MarshalText() ([]byte, error) { return []byte(layerNames[l]), nil }

// span is one timed call at a layer boundary. Times are offsets from the
// recorder's epoch.
type span struct {
	Layer  layer         `json:"name"`
	Trace  uint32        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory. Spans are recorded
// only while a trace is open (one crawl at a time), so requests the
// benchmark itself makes between crawls leave no spans behind. A nil
// recorder records nothing, which is how the untraced stack runs the same
// harness code.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	trace atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

// parentOf returns the id of the span that ctx was derived under, 0 if none.
func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// open allocates a span id under ctx's span and returns the context its
// callees should run under.
func (r *recorder) open(ctx context.Context) (context.Context, uint64, uint64) {
	if r == nil {
		return ctx, 0, 0
	}
	id := r.ids.Add(1)
	return context.WithValue(ctx, spanKey{}, id), id, parentOf(ctx)
}

// record stores one finished span of the open trace.
func (r *recorder) record(l layer, id, parent uint64, start, end time.Time) {
	if r == nil {
		return
	}
	t := r.trace.Load()
	if t == 0 {
		return
	}
	s := span{Layer: l, Trace: t, ID: id, Parent: parent, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// begin opens trace t and returns the crawl's root context and span id,
// plus a mark to collect the trace's spans with since.
func (r *recorder) begin(ctx context.Context, t uint32) (context.Context, uint64, int) {
	r.mu.Lock()
	mark := len(r.spans)
	r.mu.Unlock()
	r.trace.Store(t)
	ctx, id, _ := r.open(ctx)
	return ctx, id, mark
}

// finish records the root span and closes the trace.
func (r *recorder) finish(root uint64, start, end time.Time) {
	r.record(lCrawl, root, 0, start, end)
	r.trace.Store(0)
}

// since returns a copy of the spans recorded after mark.
func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// writeJSON writes every span as one JSON object per line.
func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes computes each layer's self time over the spans of one trace:
// a layer's summed span time minus the summed span time of the next layer
// below it that the trace contains. The root's child time is instead the
// union of its children's intervals, so that a crawl's self time is the
// wall time with no server call in flight even when calls overlap.
func selfTimes(spans []span) (self [numLayers]time.Duration) {
	var sum [numLayers]time.Duration
	var present [numLayers]bool
	for _, s := range spans {
		sum[s.Layer] += s.dur()
		present[s.Layer] = true
	}
	for l := lCrawl; l < numLayers; l++ {
		if !present[l] {
			continue
		}
		child := l + 1
		for child < numLayers && !present[child] {
			child++
		}
		self[l] = sum[l]
		switch {
		case child == numLayers:
		case l == lCrawl:
			self[l] -= union(spans, child)
		default:
			self[l] -= sum[child]
		}
	}
	return self
}

// union returns the total length of the union of layer l's span intervals.
func union(spans []span, l layer) time.Duration {
	var iv []span
	for _, s := range spans {
		if s.Layer == l {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end time.Duration
	for _, s := range iv {
		switch {
		case s.Start >= end:
			total += s.dur()
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// callTimer wraps the server a crawler talks to. It is part of both the
// untraced and the traced stack: it times every call (the rtt samples, the
// round-trip and batch-width counts), records a span when a recorder is
// set, and, while capturing, keeps every answered query in call order.
type callTimer struct {
	inner   hiddendb.Server
	layer   layer
	rec     *recorder
	capture bool

	mu      sync.Mutex
	lat     []time.Duration
	queries int
	busy    time.Duration
	journal []entry
}

// entry is one answered query of a captured crawl.
type entry struct {
	q   dataspace.Query
	res hiddendb.Result
}

// note records one answered call carrying n queries; keep is called under
// the lock to capture them.
func (c *callTimer) note(n int, id, parent uint64, t0, t1 time.Time, keep func()) {
	c.rec.record(c.layer, id, parent, t0, t1)
	d := t1.Sub(t0)
	c.mu.Lock()
	c.lat = append(c.lat, d)
	c.queries += n
	c.busy += d
	if c.capture {
		keep()
	}
	c.mu.Unlock()
}

// take returns and clears the samples of the calls made since the last take.
func (c *callTimer) take() (lat []time.Duration, queries int, busy time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lat, queries, busy = c.lat, c.queries, c.busy
	c.lat, c.queries, c.busy = nil, 0, 0
	return lat, queries, busy
}

func (c *callTimer) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	ctx, id, parent := c.rec.open(ctx)
	t0 := time.Now()
	res, err := c.inner.Answer(ctx, q)
	t1 := time.Now()
	if err == nil {
		c.note(1, id, parent, t0, t1, func() { c.journal = append(c.journal, entry{q, res}) })
	}
	return res, err
}

func (c *callTimer) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	ctx, id, parent := c.rec.open(ctx)
	t0 := time.Now()
	rs, err := c.inner.AnswerBatch(ctx, qs)
	t1 := time.Now()
	if err == nil {
		c.note(len(qs), id, parent, t0, t1, func() {
			for i, res := range rs {
				c.journal = append(c.journal, entry{qs[i], res})
			}
		})
	}
	return rs, err
}

func (c *callTimer) K() int                    { return c.inner.K() }
func (c *callTimer) Schema() *dataspace.Schema { return c.inner.Schema() }

// tracedLocal is the hiddendb layer's span decorator. Embedding the Local
// forwards the optional interfaces httpserver type-asserts on its server
// (PlanStats, EngineStats), so /stats and /metrics read the same as
// without the decorator.
type tracedLocal struct {
	*hiddendb.Local
	rec *recorder
}

func (s *tracedLocal) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	ctx, id, parent := s.rec.open(ctx)
	t0 := time.Now()
	res, err := s.Local.Answer(ctx, q)
	s.rec.record(lLocal, id, parent, t0, time.Now())
	return res, err
}

func (s *tracedLocal) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	ctx, id, parent := s.rec.open(ctx)
	t0 := time.Now()
	rs, err := s.Local.AnswerBatch(ctx, qs)
	s.rec.record(lLocal, id, parent, t0, time.Now())
	return rs, err
}

// tracedEngine is the index layer's span decorator. Select takes no ctx,
// so its spans carry no parent; self times need none (see selfTimes).
type tracedEngine struct {
	index.Engine
	rec *recorder
}

func (e *tracedEngine) Select(q dataspace.Query, limit int) []dataspace.Tuple {
	id := e.rec.ids.Add(1)
	t0 := time.Now()
	out := e.Engine.Select(q, limit)
	e.rec.record(lEngine, id, 0, t0, time.Now())
	return out
}

func (e *tracedEngine) SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple {
	_, id, parent := e.rec.open(ctx)
	t0 := time.Now()
	out := e.Engine.SelectBatch(ctx, qs, limit)
	e.rec.record(lEngine, id, parent, t0, time.Now())
	return out
}

// NumShards forwards the partition count hiddendb.Local.Shards reads
// through an optional interface.
func (e *tracedEngine) NumShards() int {
	if s, ok := e.Engine.(interface{ NumShards() int }); ok {
		return s.NumShards()
	}
	return 1
}

// spanHeader carries the client-side span id across the loopback hop.
const spanHeader = "X-Hidb-Bench-Span"

// spanTransport records one span per HTTP exchange. It reads the whole
// response body before closing the span, so the span covers the server's
// work even when the server flushes headers before its handler returns.
type spanTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, id, parent := t.rec.open(req.Context())
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if err != nil {
			resp = nil
			err = fmt.Errorf("reading response body: %w", err)
		}
	}
	t.rec.record(lRoundTrip, id, parent, t0, time.Now())
	return resp, err
}

// spanMiddleware records the handler span and hands its id to the server
// stack through the request context.
type spanMiddleware struct {
	inner http.Handler
	rec   *recorder
}

func (m *spanMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	ctx := context.WithValue(r.Context(), spanKey{}, parent)
	ctx, id, _ := m.rec.open(ctx)
	t0 := time.Now()
	m.inner.ServeHTTP(w, r.WithContext(ctx))
	m.rec.record(lHandler, id, parent, t0, time.Now())
}
