package core

import (
	"context"
	"fmt"
	"iter"
	"sync/atomic"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// PartialError is the terminal error of a CrawlSeq stream: the underlying
// crawl failure plus the cost already paid when it happened. The tuples
// yielded before the error are a valid prefix of the extraction — behind a
// journal wrapper or a per-session server their queries are recorded, so
// a resumed crawl pays only for what comes after.
type PartialError struct {
	// Queries is the number of queries the crawl had paid for when it
	// failed — the paper's cost metric for the partial extraction.
	Queries int
	// Err is the crawl's failure, e.g. hiddendb.ErrQuotaExceeded or the
	// ctx's cancellation error.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("crawl failed after %d queries: %v", e.Queries, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

// CrawlSeq runs the crawler as an incremental, cancelable stream: it
// returns an iterator over the extracted tuples, in exactly the output
// order (and number) of c.Crawl's Result.Tuples. Consuming the whole
// stream without error is a complete extraction at the crawler's usual
// query cost — streaming is delivery, not a different algorithm, so the
// paper's cost metric is untouched.
//
// Breaking out of the range loop cancels the crawl: CrawlSeq stops the
// underlying crawler (via a context derived from ctx), waits for it to
// wind down, and returns. If the crawl fails — the server's quota runs
// dry, ctx is cancelled, a round trip errors — the iterator yields one
// final (nil, *PartialError) pair carrying the failure and the queries
// already paid, read from the partial Result the crawler returned with
// its error, then stops.
//
// The stream is built on Options.OnTuples; a caller-provided OnTuples
// callback still fires (before each chunk is streamed). opts is read once
// at call time and not retained.
func CrawlSeq(ctx context.Context, c Crawler, srv hiddendb.Server, opts *Options) iter.Seq2[dataspace.Tuple, error] {
	var base Options
	if opts != nil {
		base = *opts
	}
	return func(yield func(dataspace.Tuple, error) bool) {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()

		type outcome struct {
			res *Result
			err error
		}
		tuples := make(chan dataspace.Tuple)
		done := make(chan outcome, 1)
		// dropped records an emit aborted by cancellation: those tuples
		// never reached the consumer, so even if the crawl itself manages
		// to finish cleanly, the stream must not end looking complete.
		var dropped atomic.Bool
		o := base
		prevTuples := base.OnTuples
		o.OnTuples = func(chunk dataspace.Bag) {
			if prevTuples != nil {
				prevTuples(chunk)
			}
			for _, t := range chunk {
				select {
				case tuples <- t:
				case <-cctx.Done():
					dropped.Store(true)
					return
				}
			}
		}
		go func() {
			res, err := c.Crawl(cctx, srv, &o)
			done <- outcome{res, err}
			close(tuples)
		}()

		for t := range tuples {
			if !yield(t, nil) {
				cancel()
				// Drain until the crawl goroutine closes the channel, so
				// no goroutine outlives the range loop.
				for range tuples {
				}
				<-done
				return
			}
		}
		out := <-done
		if out.err == nil && dropped.Load() {
			// The parent ctx died during the crawl's final emits: the
			// crawler saw no more queries to fail on, but the consumer is
			// missing tuples. Surface the cancellation instead of ending
			// the stream indistinguishably from a complete one.
			out.err = ctx.Err()
			if out.err == nil {
				out.err = context.Canceled
			}
		}
		if out.err != nil {
			// A failed crawler returns its partial books; a Crawler that
			// returns none reports no paid queries.
			pe := &PartialError{Err: out.err}
			if out.res != nil {
				pe.Queries = out.res.Queries
			}
			yield(nil, pe)
		}
	}
}
