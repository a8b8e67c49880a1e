// Package httpclient implements hiddendb.Server over the HTTP wire
// protocol of internal/httpserver, so every crawling algorithm can run
// unmodified against a remote hidden database: Dial fetches the search
// form's schema once, each Answer call and each one-query AnswerBatch is
// one POST /query round-trip, and AnswerBatch packs B > 1 queries into one
// POST /batch round-trip — keeping the crawler's query count equal to the
// server's while dividing the network cost by the batch size.
//
// Request bodies are appended with the wire codec's encoders. Both
// endpoints share one response path: the answer is read, through a 64 MiB
// (/query) or 256 MiB (/batch) limit, into a pooled buffer and parsed with
// wire.ParseResult or wire.ParseBatchResponse, without encoding/json; no
// returned result references the buffer. A /batch answer with more
// results than the batch had queries is an error, whatever its
// quotaExceeded or error fields say.
//
// Every round trip is issued with http.NewRequestWithContext under the
// caller's ctx: cancelling a crawl aborts its in-flight request at the
// transport, and a deadline bounds each remote query.
//
// DialToken identifies the client to the server: the token rides
// every request as "Authorization: Bearer <token>", and the server keys
// its quota, journal and counters by it — two clients with distinct tokens
// never touch each other's budgets. Crawl consumes the server-side
// streaming /crawl endpoint (the server runs the algorithm itself against
// the caller's session and streams every extracted tuple back over a
// single round trip); CrawlSeq exposes the same stream as a Go iterator,
// and the skip cursor lets a reconnecting client resume a broken stream
// without re-receiving tuples it already holds.
package httpclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"sync"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/wire"
)

// Client is a remote hidden database. It implements hiddendb.Server.
type Client struct {
	base   string
	token  string
	http   *http.Client
	schema *dataspace.Schema
	k      int
	// retry, when non-nil, makes every round trip fault-tolerant (see
	// DialRetry and retry.go) and lets Crawl/CrawlSeq resume severed
	// streams.
	retry *retrier
}

// Dial fetches the remote schema and returns a ready client. baseURL is the
// server root, e.g. "http://localhost:8080". The ctx bounds only the schema
// fetch; later calls carry their own. Passing a nil httpClient uses
// http.DefaultClient.
func Dial(ctx context.Context, baseURL string, httpClient *http.Client) (*Client, error) {
	return DialToken(ctx, baseURL, "", httpClient)
}

// DialToken is Dial with a client identity: every request carries the API
// token in the Authorization: Bearer header, so the server resolves it to
// this client's own quota, journal and counters. An empty token shares
// the server's anonymous session.
func DialToken(ctx context.Context, baseURL, token string, httpClient *http.Client) (*Client, error) {
	return dial(ctx, baseURL, token, httpClient, nil)
}

// DialRetry is DialToken over a fault-tolerant transport: transient
// failures — refused or reset connections, timeouts, 5xx responses,
// overload shedding (503 + Retry-After) — are retried per the policy with
// exponential backoff and seeded jitter, and a severed /crawl stream is
// resumed via the skip cursor instead of failing the extraction. Retrying
// never costs extra queries: a request the server already served is
// replayed free from the session journal, one it never saw is paid once
// on the attempt that lands. A round trip that
// stays down past the policy's attempts (or the client-wide retry budget)
// fails with a *TransportError wrapping the last attempt's error.
func DialRetry(ctx context.Context, baseURL, token string, httpClient *http.Client, policy RetryPolicy) (*Client, error) {
	return dial(ctx, baseURL, token, httpClient, newRetrier(policy))
}

func dial(ctx context.Context, baseURL, token string, httpClient *http.Client, retry *retrier) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: baseURL, token: token, http: httpClient, retry: retry}
	resp, err := c.doRetry(ctx, "schema", http.MethodGet, "/schema", nil)
	if err != nil {
		return nil, fmt.Errorf("httpclient: fetching schema: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpclient: schema endpoint returned %s", resp.Status)
	}
	var msg wire.SchemaMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&msg); err != nil {
		return nil, fmt.Errorf("httpclient: decoding schema: %w", err)
	}
	c.schema, c.k, err = wire.DecodeSchema(msg)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// do issues one request against the server root under ctx, stamping the
// token.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	wire.SetBearer(req.Header, c.token)
	return c.http.Do(req)
}

// doRetry is do under the client's retry policy (a plain do when no policy
// is configured). op names the call in *TransportError reports.
func (c *Client) doRetry(ctx context.Context, op, method, path string, body []byte) (*http.Response, error) {
	if c.retry == nil {
		return c.do(ctx, method, path, body)
	}
	return c.retry.do(ctx, op, func(actx context.Context) (*http.Response, error) {
		return c.do(actx, method, path, body)
	})
}

// ctxErr surfaces a cancellation hidden inside a transport error as the
// bare ctx error, so callers (and budget accounting) see the typed signal
// rather than a wrapped *url.Error. The classification is hiddendb's —
// the same predicate Quota's refunds use — so client and server can never
// disagree on what counts as cancelled.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && hiddendb.Cancelled(err) {
		return cerr
	}
	return err
}

// Answer implements hiddendb.Server with one POST /query round-trip.
func (c *Client) Answer(ctx context.Context, q dataspace.Query) (res hiddendb.Result, err error) {
	body := wire.AppendQuery(make([]byte, 0, 32*c.schema.Dims()), q)
	err = c.post(ctx, "query", body, 64<<20, func(b []byte) (err error) {
		res, err = wire.ParseResult(c.schema, b)
		return err
	})
	return res, err
}

// AnswerBatch implements hiddendb.Server with one round trip: POST /query
// for a one-query batch, POST /batch for a wider one. The server answers
// the batch exactly as if the queries had been issued sequentially; a
// batch cut short — by the server's quota or by a server failure
// mid-batch — returns the answered (and paid-for) prefix plus
// hiddendb.ErrQuotaExceeded or the server's error, respectively.
// Cancelling ctx aborts the in-flight round trip.
func (c *Client) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	switch len(qs) {
	case 0:
		return nil, nil
	case 1:
		res, err := c.Answer(ctx, qs[0])
		if err != nil {
			return nil, err
		}
		return []hiddendb.Result{res}, nil
	}
	var results []hiddendb.Result
	var quotaExceeded bool
	var serverErr string
	body := wire.AppendBatchRequest(make([]byte, 0, 32*len(qs)*c.schema.Dims()), qs)
	if err := c.post(ctx, "batch", body, 256<<20, func(b []byte) (err error) {
		results, quotaExceeded, serverErr, err = wire.ParseBatchResponse(c.schema, b)
		return err
	}); err != nil {
		return nil, err
	}
	switch {
	case len(results) > len(qs):
		// Whatever its flags say, an answer longer than the batch is not
		// a prefix of it.
		return nil, fmt.Errorf("httpclient: batch answered %d results for %d queries", len(results), len(qs))
	case serverErr != "":
		// A mid-batch server failure: the prefix was answered and paid
		// for — deliver it with the error, per the Server contract.
		return results, fmt.Errorf("httpclient: server failed mid-batch: %s", serverErr)
	case quotaExceeded:
		return results, hiddendb.ErrQuotaExceeded
	case len(results) != len(qs):
		return nil, fmt.Errorf("httpclient: batch answered %d of %d queries with no quota signal", len(results), len(qs))
	}
	return results, nil
}

// maxPooledAnswer bounds the read buffers answerBufs keeps, so one huge
// answer does not pin its buffer for the life of the process.
const maxPooledAnswer = 4 << 20

// answerBufs recycles the buffers /query and /batch answers are read
// into. The wire parsers copy everything they return out of the buffer.
var answerBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// post is the one response path of /query and /batch: it sends one
// POST /<op> round trip and reads the 200 answer, at most limit bytes of
// it, into a pooled buffer for parse. A 429 is hiddendb.ErrQuotaExceeded,
// any other status an error quoting the body.
func (c *Client) post(ctx context.Context, op string, body []byte, limit int64, parse func([]byte) error) error {
	resp, err := c.doRetry(ctx, op, http.MethodPost, "/"+op, body)
	if err != nil {
		return ctxErr(ctx, fmt.Errorf("httpclient: %s round-trip: %w", op, err))
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		drain(resp.Body)
		return hiddendb.ErrQuotaExceeded
	default:
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("httpclient: %s returned %s: %s", op, resp.Status, snippet)
	}
	buf := answerBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledAnswer {
			answerBufs.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, limit)); err != nil {
		return ctxErr(ctx, fmt.Errorf("httpclient: reading %s result: %w", op, err))
	}
	if err := parse(buf.Bytes()); err != nil {
		return fmt.Errorf("httpclient: decoding %s result: %w", op, err)
	}
	return nil
}

// drain reads what is left of an error response's body, up to 4 KiB, so
// that closing it keeps the connection: the transport drops a connection
// whose body is closed unread, and reuses one whose body hit EOF.
func drain(body io.Reader) {
	io.CopyN(io.Discard, body, 4<<10)
}

// CrawlResult is the outcome of a server-side streaming crawl.
type CrawlResult struct {
	// Tuples is the extracted bag, in the server's output order. With a
	// resume cursor, only the tuples past the cursor appear.
	Tuples dataspace.Bag
	// Queries is the session's paid query count reported by the server's
	// terminal event — the paper's cost metric for this client.
	Queries int
	// Resolved and Overflowed split the crawl's queries by outcome.
	Resolved, Overflowed int
	// Skipped is how many already-delivered tuples the resume cursor
	// suppressed server-side.
	Skipped int
}

// crawlStream decodes an NDJSON /crawl response stream: the shared engine
// of Crawl and CrawlSeq, factored out so the decoder can be fuzzed
// directly against truncated, interleaved and duplicate-event inputs. Per
// event, onEvent (when non-nil) observes the raw line; each valid tuple
// line is handed to emit, which may return false to stop consuming (a
// client-side break — stopped reports it, with no error). The stream ends
// at the first terminal (Done) line: anything after it is ignored, exactly
// as a sequential reader would never read past it. The returned
// CrawlResult carries the terminal line's counters — or, on a truncated or
// malformed stream, whatever the last event reported, alongside the error.
func crawlStream(schema *dataspace.Schema, r io.Reader, onEvent func(wire.CrawlEvent), emit func(dataspace.Tuple) bool) (out CrawlResult, stopped bool, err error) {
	dec := json.NewDecoder(r)
	tuples := 0
	for {
		var ev wire.CrawlEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return out, false, fmt.Errorf("httpclient: crawl stream ended without a terminal event (truncated?): %w", errStreamSevered)
			}
			return out, false, fmt.Errorf("httpclient: decoding crawl stream: %w: %w", err, errStreamSevered)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Done {
			out.Queries = ev.Queries
			out.Resolved = ev.Resolved
			out.Overflowed = ev.Overflowed
			out.Skipped = ev.Skipped
			if ev.Error != "" {
				if ev.QuotaExceeded {
					return out, false, hiddendb.ErrQuotaExceeded
				}
				return out, false, fmt.Errorf("httpclient: server-side crawl failed: %s", ev.Error)
			}
			return out, false, nil
		}
		out.Queries = ev.Queries
		if ev.Tuple == nil {
			continue
		}
		t := dataspace.Tuple(ev.Tuple)
		if err := t.Validate(schema); err != nil {
			return out, false, fmt.Errorf("httpclient: crawl tuple %d: %w", tuples, err)
		}
		tuples++
		if !emit(t) {
			return out, true, nil
		}
	}
}

// errStreamSevered marks a /crawl stream that died mid-flight — truncated
// or garbled by the transport rather than ended by the server's terminal
// event. A retry-enabled client resumes such a stream with the skip
// cursor; everything else (quota, server-reported failure, cancellation)
// is terminal.
var errStreamSevered = errors.New("stream severed")

// resumable reports whether a crawl-stream failure should be retried by
// reconnecting with the resume cursor.
func (c *Client) resumable(ctx context.Context, err error) bool {
	return c.retry != nil && ctx.Err() == nil && errors.Is(err, errStreamSevered)
}

// Crawl asks the server to run the named crawling algorithm against this
// client's session and consumes the NDJSON progress stream — the whole
// extraction for one HTTP round trip. An empty algorithm selects the
// server's recommended one. skip is the resume cursor: the number of
// tuples already received from an earlier, interrupted stream of this
// same crawl (0 starts from the beginning); the server suppresses that
// prefix instead of re-sending it. onEvent, when non-nil, observes every
// stream line (tuple progress and the terminal summary) as it arrives.
//
// A retry-enabled client (DialRetry) rides out a severed stream: the
// connection is reopened with the cursor advanced past every tuple
// already received, so nothing is delivered twice and — the queries
// already answered being journaled server-side — nothing is paid twice.
// Only consecutive reconnects that deliver no progress count against the
// policy's attempts.
//
// A crawl the server could not finish returns the tuples streamed so far
// plus an error — hiddendb.ErrQuotaExceeded when the session's budget ran
// dry, in which case re-calling Crawl after the budget window resets
// resumes from the server-side journal for free. Cancelling ctx tears
// down the stream; the server cancels this session's crawl and journals
// everything already paid.
func (c *Client) Crawl(ctx context.Context, algorithm string, skip int, onEvent func(wire.CrawlEvent)) (*CrawlResult, error) {
	var tuples dataspace.Bag
	out, err := c.resume(ctx, algorithm, skip, onEvent, func(t dataspace.Tuple) bool {
		tuples = append(tuples, t)
		return true
	})
	if out != nil {
		out.Tuples = tuples
	}
	return out, err
}

// resume is the loop behind Crawl and CrawlSeq: it opens the /crawl stream
// at cursor skip and hands each tuple to emit (false stops the stream,
// with no error). A severed stream is reopened with the cursor advanced
// past every tuple emitted, when the client retries; only consecutive
// reconnects that deliver no progress count against the policy's
// attempts, and each spends the retry budget and backs off first. It
// returns, without tuples, the counters of the last stream that carried
// an event (zero if none did, nil if no stream opened), and the error
// that ended the crawl.
func (c *Client) resume(ctx context.Context, algorithm string, skip int, onEvent func(wire.CrawlEvent), emit func(dataspace.Tuple) bool) (*CrawlResult, error) {
	var last *CrawlResult
	failures := 0 // consecutive reconnects with no progress
	for {
		resp, err := c.openCrawl(ctx, algorithm, skip)
		if err != nil {
			return last, err
		}
		progressed, reported := false, false
		res, _, err := crawlStream(c.schema, resp.Body, func(ev wire.CrawlEvent) {
			reported = true
			if onEvent != nil {
				onEvent(ev)
			}
		}, func(t dataspace.Tuple) bool {
			skip++
			progressed = true
			return emit(t)
		})
		resp.Body.Close()
		if reported || last == nil {
			last = &res
		}
		if err == nil {
			return last, nil
		}
		if !c.resumable(ctx, err) {
			return last, ctxErr(ctx, err)
		}
		if progressed {
			failures = 0
		}
		failures++
		if failures >= c.retry.policy.MaxAttempts {
			return last, &TransportError{Op: "crawl", Attempts: failures, Err: err}
		}
		if !c.retry.spend() {
			return last, &TransportError{Op: "crawl", Attempts: failures, Err: fmt.Errorf("retry budget exhausted: %w", err)}
		}
		if serr := c.retry.policy.Clock.Sleep(ctx, c.retry.backoff(failures, 0)); serr != nil {
			return last, serr
		}
	}
}

// openCrawl POSTs the /crawl request and verifies the stream started,
// translating the failure statuses into their typed errors.
func (c *Client) openCrawl(ctx context.Context, algorithm string, skip int) (*http.Response, error) {
	body, err := json.Marshal(wire.CrawlRequest{Algorithm: algorithm, Skip: skip})
	if err != nil {
		return nil, fmt.Errorf("httpclient: encoding crawl request: %w", err)
	}
	resp, err := c.doRetry(ctx, "crawl", http.MethodPost, "/crawl", body)
	if err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("httpclient: crawl round-trip: %w", err))
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusTooManyRequests:
		drain(resp.Body)
		resp.Body.Close()
		return nil, hiddendb.ErrQuotaExceeded
	case http.StatusNotFound:
		drain(resp.Body)
		resp.Body.Close()
		return nil, errors.New("httpclient: server has no /crawl endpoint (pre-session server?)")
	default:
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		return nil, fmt.Errorf("httpclient: crawl returned %s: %s", resp.Status, snippet)
	}
}

// CrawlSeq is the iterator form of Crawl: the server-side crawl's tuples
// arrive as an iter.Seq2 stream, in extraction order. Breaking out of the
// range loop cancels the request — the server aborts this session's crawl
// and journals the queries already paid, so a later CrawlSeq with the
// count of tuples received as skip finishes the extraction without paying
// for or re-receiving anything already delivered. A retry-enabled client
// (DialRetry) absorbs severed streams transparently: the iterator
// reconnects with the cursor advanced past the tuples already yielded, so
// the consumer never sees a duplicate. A crawl that fails yields one
// final (nil, error) pair: a *core.PartialError wrapping
// hiddendb.ErrQuotaExceeded (resumable after the budget window) or the
// transport/server failure, with the last paid query count the server
// reported attached.
func (c *Client) CrawlSeq(ctx context.Context, algorithm string, skip int) iter.Seq2[dataspace.Tuple, error] {
	return func(yield func(dataspace.Tuple, error) bool) {
		// A false yield stops the stream; cancel then aborts it
		// server-side.
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		last, err := c.resume(cctx, algorithm, skip, nil, func(t dataspace.Tuple) bool { return yield(t, nil) })
		if err == nil {
			return
		}
		queries := 0
		if last != nil {
			queries = last.Queries
		}
		yield(nil, &core.PartialError{Queries: queries, Err: err})
	}
}

// K implements hiddendb.Server.
func (c *Client) K() int { return c.k }

// Schema implements hiddendb.Server.
func (c *Client) Schema() *dataspace.Schema { return c.schema }
