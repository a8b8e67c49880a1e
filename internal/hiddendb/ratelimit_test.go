package hiddendb

import (
	"context"
	"errors"
	"testing"
	"time"

	"hidb/internal/dataspace"
)

// fakeClock is a Clock that drives a RateLimited deterministically:
// take()'s refill math reads now, and each Sleep runs the test's sleep
// behaviour, so no test time passes.
type fakeClock struct {
	now   time.Duration
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error { return c.sleep(ctx, d) }

func rateLimitedForTest(t *testing.T, srv Server, perSecond float64, burst int) (*RateLimited, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: 1000 * time.Second}
	rl, err := NewRateLimited(srv, perSecond, burst, clk)
	if err != nil {
		t.Fatal(err)
	}
	return rl, clk
}

// TestRateLimitThrottlesToSustainedRate: a burst-sized prefix is free,
// then each query pays 1/rate of (virtual) waiting — and responses are
// untouched.
func TestRateLimitThrottlesToSustainedRate(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(200, 53), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	rl, clk := rateLimitedForTest(t, srv, 10, 2) // 10 qps, burst 2

	var waited time.Duration
	clk.sleep = func(ctx context.Context, d time.Duration) error {
		waited += d
		clk.now += d
		return ctx.Err()
	}

	q := dataspace.UniverseQuery(sch)
	want, err := srv.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := rl.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(res, want) {
			t.Fatal("rate limiter altered a response")
		}
	}
	if waited != 0 {
		t.Fatalf("burst queries waited %v, want 0", waited)
	}
	// The bucket is empty: five more queries cost 100ms each at 10 qps.
	for i := 0; i < 5; i++ {
		if _, err := rl.Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if want := 500 * time.Millisecond; waited != want {
		t.Fatalf("5 post-burst queries waited %v, want %v", waited, want)
	}

	// A batch wider than the burst drains in instalments at the same
	// sustained rate: 10 queries = 1s of virtual waiting.
	waited = 0
	if _, err := rl.AnswerBatch(context.Background(), batchQueries(sch, 10, 62)); err != nil {
		t.Fatal(err)
	}
	if want := 1 * time.Second; waited != want {
		t.Fatalf("10-query batch waited %v, want %v", waited, want)
	}
}

// TestRateLimitWaitCancels: a throttled query stops waiting the moment
// its ctx dies — the "throttled crawls cancel promptly" contract — and a
// cancelled wait issues nothing.
func TestRateLimitWaitCancels(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(100, 54), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	counting := NewCounting(srv)
	rl, err := NewRateLimited(counting, 0.5, 1, Wall) // one query per 2s
	if err != nil {
		t.Fatal(err)
	}
	q := dataspace.UniverseQuery(sch)
	if _, err := rl.Answer(context.Background(), q); err != nil {
		t.Fatal(err) // burst token: immediate
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rl.Answer(ctx, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled wait blocked %v — the rate limiter ignored the ctx", elapsed)
	}
	if counting.Queries() != 1 {
		t.Fatalf("cancelled wait issued a query: %d served, want 1", counting.Queries())
	}
}

// TestRateLimitCancelledWaitRefunds: a multi-instalment batch wait that
// dies mid-way refunds the instalments already drained — the caller
// issued nothing, so its next queries must not pay for the phantom work.
func TestRateLimitCancelledWaitRefunds(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(200, 56), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	rl, clk := rateLimitedForTest(t, srv, 1, 2) // 1 qps, burst 2, bucket full
	clk.sleep = func(ctx context.Context, d time.Duration) error {
		return context.Canceled // the refill wait dies immediately
	}
	// 6 queries = 3 burst-sized instalments: the first drains the full
	// bucket, the second hits the (cancelled) wait.
	if _, err := rl.AnswerBatch(context.Background(), batchQueries(sch, 6, 63)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The two drained tokens are back: two queries pass with no wait.
	clk.sleep = func(ctx context.Context, d time.Duration) error {
		t.Fatalf("post-refund query waited %v — the cancelled instalments were not refunded", d)
		return nil
	}
	for i, q := range batchQueries(sch, 2, 64) {
		if _, err := rl.Answer(context.Background(), q); err != nil {
			t.Fatalf("post-refund query %d: %v", i, err)
		}
	}
}

// TestRateLimitRejectsBadRate: non-positive rates are configuration
// errors, not silent no-ops.
func TestRateLimitRejectsBadRate(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(10, 55), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, -1} {
		if _, err := NewRateLimited(srv, rate, 1, Wall); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

// sleepCapped is a SimClock that fails the wait once a test's sleep
// allowance is spent, so a limiter that never advances the clock fails
// instead of hanging.
type sleepCapped struct {
	*SimClock
	left int
}

var errSleepCap = errors.New("sleep cap reached: the limiter is not advancing the clock")

func (c *sleepCapped) Sleep(ctx context.Context, d time.Duration) error {
	if c.left == 0 {
		return errSleepCap
	}
	c.left--
	return c.SimClock.Sleep(ctx, d)
}

// TestRateLimitVirtualClockAdvances: at 3 qps the exact wait, 1/3 s, is
// not a whole number of nanoseconds. A truncated wait refills only
// 0.999999999 of a token, the wait for the rest truncates to 0, and
// Sleep(0) never advances a virtual clock — the limiter livelocked. The
// wait is rounded up instead, so three queries at burst 1 land at exactly
// two rounded-up waits.
func TestRateLimitVirtualClockAdvances(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(50, 57), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	clock := &sleepCapped{SimClock: NewSimClock(), left: 100}
	rl, err := NewRateLimited(srv, 3, 1, clock)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range batchQueries(sch, 3, 65) {
		if _, err := rl.Answer(context.Background(), q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got, want := clock.Now(), 2*333_333_334*time.Nanosecond; got != want {
		t.Fatalf("three queries at 3 qps left the clock at %v, want %v", got, want)
	}
	if clock.left != 98 {
		t.Fatalf("three queries slept %d times, want 2", 100-clock.left)
	}
}
