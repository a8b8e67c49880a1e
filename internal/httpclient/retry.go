// Fault-tolerant transport. A remote crawl spanning hours of rate-limited
// queries will see the network fail: connections reset, servers restart,
// proxies time out, overloaded servers shed load. None of those failures
// need cost the crawl anything — the server journals every answered query
// per session, so a retried request that the server already served replays
// from the journal for free, and one that never arrived is simply paid
// once, on the attempt that lands. The retrier below therefore only has to
// make the round trip *eventually* happen; the cost model takes care of
// itself.
//
// Retries are policy-driven: capped attempts with exponential backoff and
// seeded jitter, an optional cross-call retry budget (a storm brake), an
// optional per-attempt time-to-response bound, and Retry-After honoured
// when an overloaded server sheds the request with a 503. Backoff sleeps
// run on the policy's hiddendb.Clock; on a hiddendb.SimClock tests
// exercise real retry schedules in microseconds, deterministically.
package httpclient

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hidb/internal/hiddendb"
	"hidb/internal/simrand"
)

// RetryPolicy configures the fault-tolerant transport (see DialRetry).
// The zero value of any field selects its default.
type RetryPolicy struct {
	// MaxAttempts is the total tries per round trip (first attempt
	// included); default 4. For stream resumption it bounds *consecutive*
	// failed reconnects — a reconnect that makes progress resets the count.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; default 5s.
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry; default 2.
	Multiplier float64
	// JitterSeed seeds the deterministic jitter generator. Equal seeds give
	// equal retry schedules — the chaos tests depend on it.
	JitterSeed uint64
	// PerAttempt, when positive, bounds each attempt's time to response
	// headers (wall clock); an attempt that exceeds it is abandoned and
	// retried. It never cuts short a streaming response body.
	PerAttempt time.Duration
	// Budget, when positive, caps the total retries across the client's
	// lifetime — a brake on retry storms. Exhausting it fails the call
	// with a *TransportError immediately.
	Budget int
	// Clock times the backoff sleeps; nil means hiddendb.Wall. A
	// *hiddendb.SimClock runs them on virtual time, but a nil *SimClock
	// is a non-nil Clock whose Sleep returns at once: it disables backoff
	// rather than selecting Wall, so pass nil or hiddendb.Wall for real
	// time. PerAttempt is always wall time.
	Clock hiddendb.Clock
}

// withDefaults fills in the zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Clock == nil {
		p.Clock = hiddendb.Wall
	}
	return p
}

// TransportError reports a round trip that failed even after retrying: the
// attempts are exhausted (or the client's retry budget is). It wraps the
// last attempt's failure. Quota, cancellation and server-logic errors are
// never wrapped in it — those are terminal on the first occurrence.
type TransportError struct {
	// Op names the failing call: "schema", "query", "batch" or "crawl".
	Op string
	// Attempts is how many tries were made.
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("httpclient: %s failed after %d attempts: %v", e.Op, e.Attempts, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// retrier executes attempts under a RetryPolicy. One per Client; safe for
// concurrent calls.
type retrier struct {
	policy RetryPolicy

	mu     sync.Mutex
	rng    *simrand.RNG
	budget int // remaining retries when the policy caps them; -1 = unlimited
}

func newRetrier(policy RetryPolicy) *retrier {
	p := policy.withDefaults()
	budget := -1
	if p.Budget > 0 {
		budget = p.Budget
	}
	return &retrier{policy: p, rng: simrand.New(p.JitterSeed), budget: budget}
}

// spend consumes one unit of the retry budget, reporting false when the
// storm brake has engaged.
func (r *retrier) spend() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget == 0 {
		return false
	}
	if r.budget > 0 {
		r.budget--
	}
	return true
}

// backoff returns the delay before retry number n (1-based): exponential
// with seeded half-jitter, capped, and never below what the server's
// Retry-After asked for.
func (r *retrier) backoff(n int, retryAfter time.Duration) time.Duration {
	p := r.policy
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	r.mu.Lock()
	jittered := time.Duration(d/2 + r.rng.Float64()*d/2)
	r.mu.Unlock()
	if retryAfter > jittered {
		return retryAfter
	}
	return jittered
}

// transientStatus reports whether a response status is worth retrying:
// the server-side failures (5xx) that a later attempt may not see. 501
// (Not Implemented) is permanent by definition. Everything below 500 —
// including 429, the quota signal, and 404, an unknown endpoint — is a
// protocol answer, not a transport failure.
func transientStatus(code int) bool {
	return code >= 500 && code != http.StatusNotImplemented
}

// retryAfter parses the response's Retry-After seconds, if any.
func retryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do runs one logical round trip, retrying transient failures per the
// policy. attempt must issue the request under the ctx it is handed and
// return the raw response. On success the response is returned with its
// body intact (a transient 5xx body is drained and closed before the
// retry). Parent-ctx cancellation is surfaced as the ctx error; exhausted
// attempts or budget come back as a *TransportError wrapping the last
// failure.
func (r *retrier) do(ctx context.Context, op string, attempt func(context.Context) (*http.Response, error)) (*http.Response, error) {
	var lastErr error
	for n := 1; ; n++ {
		resp, err := r.try(ctx, attempt)
		var wait time.Duration
		switch {
		case err == nil && !transientStatus(resp.StatusCode):
			return resp, nil
		case err == nil:
			wait = retryAfter(resp.Header)
			snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			lastErr = fmt.Errorf("server returned %s: %s", resp.Status, snippet)
		default:
			if cerr := ctx.Err(); cerr != nil {
				// The caller hung up; not the transport's failure to report.
				return nil, cerr
			}
			// Everything else — refused connections, resets, a timed-out
			// attempt — is transient: the server may be restarting, and a
			// request it did serve before the failure costs nothing to
			// retry (the session journal replays it for free).
			lastErr = err
		}
		if n >= r.policy.MaxAttempts {
			return nil, &TransportError{Op: op, Attempts: n, Err: lastErr}
		}
		if !r.spend() {
			return nil, &TransportError{Op: op, Attempts: n, Err: fmt.Errorf("retry budget exhausted: %w", lastErr)}
		}
		if err := r.policy.Clock.Sleep(ctx, r.backoff(n, wait)); err != nil {
			return nil, err
		}
	}
}

// try runs one attempt, bounding its time to response headers when the
// policy asks for it. The bound must not cut short a streaming body, so it
// is an AfterFunc cancelled once the headers are in, not a ctx deadline
// spanning the response; the attempt ctx then lives until the body is
// closed.
func (r *retrier) try(ctx context.Context, attempt func(context.Context) (*http.Response, error)) (*http.Response, error) {
	if r.policy.PerAttempt <= 0 {
		return attempt(ctx)
	}
	actx, cancel := context.WithCancel(ctx)
	timer := time.AfterFunc(r.policy.PerAttempt, cancel)
	resp, err := attempt(actx)
	if err != nil {
		timer.Stop()
		cancel()
		if ctx.Err() == nil && hiddendb.Cancelled(err) {
			// The per-attempt bound fired, not the caller: report a plain
			// timeout so the retry loop treats it as transient.
			return nil, fmt.Errorf("attempt exceeded %v to response", r.policy.PerAttempt)
		}
		return nil, err
	}
	timer.Stop()
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose releases an attempt's ctx when its response body is done.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
