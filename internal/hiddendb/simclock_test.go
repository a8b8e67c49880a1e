package hiddendb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// simTestServer builds a small deterministic local server.
func simTestServer(t *testing.T, n, k int) (*Local, *dataspace.Schema) {
	t.Helper()
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 6},
		{Name: "N", Kind: dataspace.Numeric, Min: 0, Max: 10_000},
	})
	rng := simrand.New(7)
	bag := make(dataspace.Bag, n)
	for i := range bag {
		bag[i] = dataspace.Tuple{int64(1 + rng.Intn(6)), rng.IntRange(0, 10_000)}
	}
	srv, err := NewLocal(schema, bag, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	return srv, schema
}

func TestSimClockSequentialSleep(t *testing.T) {
	c := NewSimClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	// With no holds and no competing sleepers, Sleep returns immediately
	// after advancing the clock.
	for i := 1; i <= 3; i++ {
		if err := c.Sleep(context.Background(), 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if want := time.Duration(i) * 5 * time.Millisecond; c.Now() != want {
			t.Fatalf("after %d sleeps clock at %v, want %v", i, c.Now(), want)
		}
	}
	// Zero and negative durations are free.
	if err := c.Sleep(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 15*time.Millisecond {
		t.Fatalf("zero sleep moved the clock to %v", c.Now())
	}
}

func TestSimClockNilSafe(t *testing.T) {
	var c *SimClock
	c.Hold()
	c.Release()
	c.SetIdle(nil)
	if c.Now() != 0 {
		t.Fatal("nil clock has a time")
	}
	if err := c.Sleep(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil clock sleep under cancelled ctx: %v", err)
	}
}

// TestSimClockConcurrentSleepersWakeTogether drives the hold protocol by
// hand: two held goroutines sleeping to the same deadline wake at the same
// virtual instant, and the clock advances only once both are asleep.
func TestSimClockConcurrentSleepersWakeTogether(t *testing.T) {
	c := NewSimClock()
	const d = 3 * time.Millisecond
	var wg sync.WaitGroup
	woke := make(chan time.Duration, 2)
	for i := 0; i < 2; i++ {
		c.Hold() // minted by the "spawner", as the batcher does
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Release()
			if err := c.Sleep(context.Background(), d); err != nil {
				t.Error(err)
			}
			woke <- c.Now()
		}()
	}
	wg.Wait()
	close(woke)
	for at := range woke {
		if at != d {
			t.Fatalf("sleeper woke at %v, want %v", at, d)
		}
	}
	if c.Now() != d {
		t.Fatalf("clock at %v after both slept %v", c.Now(), d)
	}
}

// TestSimClockStaggeredDeadlines: with one goroutine holding, the clock
// cannot advance; once it sleeps further out, the earlier deadline fires
// first and the clock visits each deadline in order.
func TestSimClockStaggeredDeadlines(t *testing.T) {
	c := NewSimClock()
	order := make(chan int, 2)
	var wg sync.WaitGroup
	c.Hold()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Release()
		c.Sleep(context.Background(), 2*time.Millisecond)
		order <- 1
		c.Sleep(context.Background(), 4*time.Millisecond) // until t=6ms
		order <- 2
	}()
	c.Hold()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Release()
		c.Sleep(context.Background(), 4*time.Millisecond) // until t=4ms
	}()
	wg.Wait()
	if got := c.Now(); got != 6*time.Millisecond {
		t.Fatalf("clock ended at %v, want 6ms", got)
	}
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("wake order %d,%d", first, second)
	}
}

// TestSimClockSleepCancelled: a ctx cancelled during a virtual sleep wakes
// the sleeper with the ctx's error and without advancing the clock past
// deadlines that were never reached.
func TestSimClockSleepCancelled(t *testing.T) {
	c := NewSimClock()
	ctx, cancel := context.WithCancel(context.Background())
	// Two holds: one for the test goroutine itself (still runnable — it is
	// about to cancel), one minted for the sleeper. With the test's hold
	// outstanding the clock cannot advance, so the sleep must end by
	// cancellation.
	c.Hold()
	c.Hold()
	errc := make(chan error, 1)
	go func() {
		errc <- c.Sleep(ctx, time.Hour)
	}()
	// Give the sleeper a moment to register, then cancel.
	time.Sleep(time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep returned %v", err)
	}
	if c.Now() != 0 {
		t.Fatalf("cancellation advanced the clock to %v", c.Now())
	}
	c.Release()
	c.Release()
}

// TestSimClockIdleCallback: the idle callback fires at quiescence, may
// schedule work for the current instant (keeping the clock still), and the
// clock advances once it declines.
func TestSimClockIdleCallback(t *testing.T) {
	c := NewSimClock()
	fired := 0
	c.SetIdle(func() bool {
		fired++
		if fired == 1 {
			// Claim the granted hold and release it right away: work that
			// ran and finished within the instant.
			go c.Release()
			return true
		}
		return false
	})
	c.Hold()
	done := make(chan struct{})
	go func() {
		c.Sleep(context.Background(), time.Millisecond)
		close(done)
	}()
	// The sleeping goroutine releases the only hold; idle fires once,
	// schedules nothing durable, then the clock advances and the sleeper
	// wakes.
	<-done
	if c.Now() != time.Millisecond {
		t.Fatalf("clock at %v", c.Now())
	}
	if fired < 2 {
		t.Fatalf("idle callback fired %d times, want at least 2", fired)
	}
	c.Release()
}

func TestLatencyOnSimClockSequential(t *testing.T) {
	srv, schema := simTestServer(t, 500, 50)
	clock := NewSimClock()
	const delay = 2 * time.Millisecond
	sim := NewLatency(srv, delay, clock)
	if sim.K() != srv.K() || sim.Schema() != srv.Schema() {
		t.Fatal("Latency does not forward K/Schema")
	}

	u := dataspace.UniverseQuery(schema)
	want, err := srv.Answer(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Answer(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
		t.Fatal("simulated latency changed a response")
	}
	if clock.Now() != delay {
		t.Fatalf("one round trip left the clock at %v, want %v", clock.Now(), delay)
	}

	// A batch pays the delay once.
	qs := []dataspace.Query{u, u.WithValue(0, 1), u.WithValue(0, 2)}
	res, err := sim.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(qs) {
		t.Fatalf("batch answered %d of %d", len(res), len(qs))
	}
	if clock.Now() != 2*delay {
		t.Fatalf("batch round trip left the clock at %v, want %v", clock.Now(), 2*delay)
	}
	if sim.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", sim.Trips())
	}
}

// TestLatencyOnSimClockCancelledNotServed: a ctx cancelled before the
// virtual round trip completes aborts the query unserved — Trips stays
// put, so nothing was charged downstream.
func TestLatencyOnSimClockCancelledNotServed(t *testing.T) {
	srv, schema := simTestServer(t, 100, 10)
	clock := NewSimClock()
	sim := NewLatency(srv, time.Hour, clock)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Answer(ctx, dataspace.UniverseQuery(schema)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := sim.AnswerBatch(ctx, []dataspace.Query{dataspace.UniverseQuery(schema)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if sim.Trips() != 0 {
		t.Fatalf("cancelled round trips still counted: %d", sim.Trips())
	}
	if clock.Now() != 0 {
		t.Fatalf("cancelled round trips advanced the clock to %v", clock.Now())
	}
}
