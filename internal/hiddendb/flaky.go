// Deterministic fault injection. A real hidden database fails in ways the
// simulator's happy path never exercises: transient 5xxs, a load balancer
// dropping the nth request, a client abort racing an in-flight batch. The
// answered-prefix contract — AnswerBatch returns the responses of the
// queries answered before the failure, and the error describes the first
// query that was not — is what keeps counters, quotas and journals
// agreeing through all of them, and Flaky exists to pin that agreement
// with repeatable tests: every fault it injects is a pure function of its
// seed and the query-arrival order, so a failing run replays exactly.
package hiddendb

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// ErrInjected is the transient failure Flaky injects. It is distinct from
// every real error in the stack, so tests can assert a crawl died of the
// injected fault and nothing else.
var ErrInjected = errors.New("hiddendb: injected transient fault")

// FlakyConfig selects which faults a Flaky server injects. All counting is
// in query attempts — the position a query would have in the sequential
// issue order — so a batch that faults at its i-th query fails exactly
// where a sequential caller would have failed.
type FlakyConfig struct {
	// Seed drives the FailProb coin flips. Equal seeds give equal fault
	// streams.
	Seed uint64
	// FailNth, when positive, fails every FailNth-th query attempt with
	// ErrInjected (the 1-based attempt counter is global across calls).
	FailNth int
	// FailProb, when positive, fails each attempt with this probability,
	// drawn deterministically from Seed.
	FailProb float64
	// AbortFrom and AbortUntil, when AbortUntil > AbortFrom, fail every
	// attempt whose 0-based index lies in [AbortFrom, AbortUntil) with
	// context.Canceled — a window of client aborts. Cancellation-flavoured
	// faults exercise the refund path: Cancelled(err) holds, so a Quota
	// above the Flaky layer refunds the query, exactly as it would for a
	// real ctx abort.
	AbortFrom, AbortUntil int
}

// Flaky wraps a Server with deterministic, seeded fault injection per
// FlakyConfig. A faulted query never reaches the inner server; in a batch,
// the queries before the fault are answered (and paid for) normally and
// returned as the answered prefix, per the Server contract. Safe for
// concurrent use; the global attempt order is whatever order queries
// arrive at this layer.
type Flaky struct {
	inner Server
	cfg   FlakyConfig

	mu       sync.Mutex
	rng      *simrand.RNG
	attempts int
	injected int
}

// NewFlaky wraps srv with the given fault plan.
func NewFlaky(srv Server, cfg FlakyConfig) *Flaky {
	return &Flaky{inner: srv, cfg: cfg, rng: simrand.New(cfg.Seed)}
}

// faultLocked advances the attempt counter and returns the fault for this
// attempt, or nil to let it through. Callers hold f.mu.
func (f *Flaky) faultLocked() error {
	i := f.attempts
	f.attempts++
	var err error
	switch {
	case f.cfg.AbortUntil > f.cfg.AbortFrom && i >= f.cfg.AbortFrom && i < f.cfg.AbortUntil:
		err = fmt.Errorf("hiddendb: injected abort of query attempt %d: %w", i, context.Canceled)
	case f.cfg.FailNth > 0 && (i+1)%f.cfg.FailNth == 0:
		err = fmt.Errorf("hiddendb: query attempt %d: %w", i, ErrInjected)
	case f.cfg.FailProb > 0 && f.rng.Bool(f.cfg.FailProb):
		err = fmt.Errorf("hiddendb: query attempt %d: %w", i, ErrInjected)
	}
	if err != nil {
		f.injected++
	}
	return err
}

// Answer implements Server as a one-query batch.
func (f *Flaky) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	return Answer(ctx, f, q)
}

// AnswerBatch implements Server with the answered-prefix contract: fault
// positions are decided for the batch in sequential order, the prefix
// before the first fault is forwarded (and answered, and paid for)
// normally, and the fault fails everything from its position on. Queries
// past the fault are not counted as attempts — a sequential caller would
// have stopped before issuing them.
func (f *Flaky) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	cut, ferr := len(qs), error(nil)
	f.mu.Lock()
	for i := range qs {
		if err := f.faultLocked(); err != nil {
			cut, ferr = i, err
			break
		}
	}
	f.mu.Unlock()
	if cut == 0 {
		// The first query faulted: nothing to forward. Returning here —
		// rather than handing an empty batch down the stack — matters to
		// the measurement decorators below, which charge a round trip
		// (one latency delay) per AnswerBatch call regardless of width; a
		// sequential caller would have issued nothing.
		return nil, ferr
	}
	res, err := f.inner.AnswerBatch(ctx, qs[:cut])
	if err != nil {
		// The inner server failed before the injected fault's position was
		// even reached; its (shorter) answered prefix and error win.
		return res, err
	}
	return res, ferr
}

// K implements Server.
func (f *Flaky) K() int { return f.inner.K() }

// Schema implements Server.
func (f *Flaky) Schema() *dataspace.Schema { return f.inner.Schema() }
