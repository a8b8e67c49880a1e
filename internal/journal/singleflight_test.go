package journal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/memo"
)

// blockingInner is a hidden-database stand-in whose every query parks on a
// gate, so a test can hold two callers inside the miss window at once.
type blockingInner struct {
	schema  *dataspace.Schema
	gate    chan struct{}
	arrived chan struct{}
	calls   atomic.Int32
}

func (b *blockingInner) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, b, q)
}

func (b *blockingInner) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	out := make([]hiddendb.Result, 0, len(qs))
	for range qs {
		b.calls.Add(1)
		b.arrived <- struct{}{}
		select {
		case <-b.gate:
		case <-ctx.Done():
			return out, ctx.Err()
		}
		out = append(out, hiddendb.Result{})
	}
	return out, nil
}

func (b *blockingInner) K() int                    { return 4 }
func (b *blockingInner) Schema() *dataspace.Schema { return b.schema }

// Two concurrent misses on the same query must charge the inner server
// once: the second caller waits for the first's answer and replays it.
// This is the reconnect-races-zombie-crawl scenario — the retrying client
// opens a new crawl while the severed one is still winding down.
func TestAnswerSingleFlight(t *testing.T) {
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 3},
	})
	inner := &blockingInner{schema: schema, gate: make(chan struct{}), arrived: make(chan struct{}, 2)}
	srv, err := Wrap(inner, New(schema, 4))
	if err != nil {
		t.Fatal(err)
	}
	q := dataspace.UniverseQuery(schema)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Answer(context.Background(), q); err != nil {
				t.Errorf("Answer: %v", err)
			}
		}()
	}
	// One caller reaches the inner server and parks; give the other caller
	// time to reach the same miss, then open the gate.
	<-inner.arrived
	time.Sleep(10 * time.Millisecond)
	close(inner.gate)
	wg.Wait()

	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("inner server charged %d times for one query, want 1", got)
	}
	if srv.Replays() != 1 {
		t.Fatalf("replays = %d, want 1 (the waiter must replay the winner's answer)", srv.Replays())
	}
}

// A waiter whose ctx dies while the winner is still in flight gets the ctx
// error, not a second paid query.
func TestSingleFlightWaiterHonoursContext(t *testing.T) {
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 3},
	})
	inner := &blockingInner{schema: schema, gate: make(chan struct{}), arrived: make(chan struct{}, 2)}
	srv, err := Wrap(inner, New(schema, 4))
	if err != nil {
		t.Fatal(err)
	}
	q := dataspace.UniverseQuery(schema)

	winnerDone := make(chan error, 1)
	go func() {
		_, err := srv.Answer(context.Background(), q)
		winnerDone <- err
	}()
	<-inner.arrived

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := srv.Answer(ctx, q)
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-waiterDone; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(inner.gate)
	if err := <-winnerDone; err != nil {
		t.Fatalf("winner failed: %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("inner server charged %d times, want 1", got)
	}
}

// ask is one concurrent request on a journal server.
type ask func(ctx context.Context, s *Server) error

func answerAsk(q dataspace.Query) ask {
	return func(ctx context.Context, s *Server) error {
		_, err := s.Answer(ctx, q)
		return err
	}
}

func batchAsk(qs ...dataspace.Query) ask {
	return func(ctx context.Context, s *Server) error {
		res, err := s.AnswerBatch(ctx, qs)
		if err == nil && len(res) != len(qs) {
			return fmt.Errorf("batch answered %d of %d", len(res), len(qs))
		}
		return err
	}
}

// within fails the test unless ch delivers within a deadline — the
// deadlock detector of the single-flight tests.
func within(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: deadlocked", what)
		return nil
	}
}

// awaitArrival waits, with within's deadline, for a query to park in the
// inner server.
func (b *blockingInner) awaitArrival(t *testing.T, what string) {
	t.Helper()
	select {
	case <-b.arrived:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: never reached the inner server", what)
	}
}

// checkPaid pins a single-flight case's accounting: paid answers counted
// by the inner counter and recorded by the journal, calls reaching the
// (blocking) inner server, and replays handed to waiters.
func checkPaid(t *testing.T, counting *hiddendb.Counting, inner *blockingInner, j *Journal, srv *Server, paid, calls, replays int) {
	t.Helper()
	if got := counting.Queries(); got != paid {
		t.Errorf("inner server charged %d answers, want %d", got, paid)
	}
	if got := int(inner.calls.Load()); got != calls {
		t.Errorf("%d queries reached the inner server, want %d", got, calls)
	}
	if j.Len() != paid {
		t.Errorf("journal recorded %d, want %d", j.Len(), paid)
	}
	if srv.Replays() != replays {
		t.Errorf("replays = %d, want %d", srv.Replays(), replays)
	}
}

// TestAnswerBatchSingleFlight: a journal miss reaches the inner server once
// however its concurrent asks split between Answer and AnswerBatch — the
// later ask waits for the earlier one and replays its answer. Crossing
// batches must not deadlock, and a leader cancelled while a follower waits
// hands the query over: the follower pays for it once, and the cancelled
// attempt is never counted as paid.
func TestAnswerBatchSingleFlight(t *testing.T) {
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 3},
	})
	u := dataspace.UniverseQuery(schema)
	x, y := u.WithValue(0, 1), u.WithValue(0, 2)
	setup := func(t *testing.T) (*blockingInner, *hiddendb.Counting, *Journal, *Server) {
		inner := &blockingInner{schema: schema, gate: make(chan struct{}), arrived: make(chan struct{}, 4)}
		counting := hiddendb.NewCounting(inner)
		j := New(schema, 4)
		srv, err := Wrap(counting, j)
		if err != nil {
			t.Fatal(err)
		}
		return inner, counting, j, srv
	}

	// Each case starts first, waits until it parks in the inner server
	// (so it leads every miss it asks), then starts second and lets it
	// reach the same misses before opening the gate.
	cases := []struct {
		name          string
		first, second ask
		// cancelFirst cancels the first ask's ctx while the second waits
		// on it.
		cancelFirst bool
		// paid is the answers the inner server returned and the journal
		// recorded, calls every query that reached the inner server,
		// replays the answers handed to waiters.
		paid, calls, replays int
	}{
		{name: "batch∥batch", first: batchAsk(x), second: batchAsk(x), paid: 1, calls: 1, replays: 1},
		{name: "Answer∥batch", first: answerAsk(x), second: batchAsk(x), paid: 1, calls: 1, replays: 1},
		{name: "batch∥Answer", first: batchAsk(x), second: answerAsk(x), paid: 1, calls: 1, replays: 1},
		{name: "crossing", first: batchAsk(x, y), second: batchAsk(y, x), paid: 2, calls: 2, replays: 2},
		{name: "leader-cancelled", first: batchAsk(x), second: batchAsk(x), cancelFirst: true, paid: 1, calls: 2, replays: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner, counting, j, srv := setup(t)
			firstCtx, cancel := context.WithCancel(context.Background())
			defer cancel()
			firstErr, secondErr := make(chan error, 1), make(chan error, 1)
			go func() { firstErr <- tc.first(firstCtx, srv) }()
			inner.awaitArrival(t, "first ask")
			go func() { secondErr <- tc.second(context.Background(), srv) }()
			time.Sleep(10 * time.Millisecond)
			if tc.cancelFirst {
				cancel()
				if err := within(t, firstErr, "cancelled leader"); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
				}
			}
			close(inner.gate)
			if !tc.cancelFirst {
				if err := within(t, firstErr, "first ask"); err != nil {
					t.Fatalf("first ask: %v", err)
				}
			}
			if err := within(t, secondErr, "second ask"); err != nil {
				t.Fatalf("second ask: %v", err)
			}
			checkPaid(t, counting, inner, j, srv, tc.paid, tc.calls, tc.replays)
		})
	}

	// The crossing interleaving proper: [x,y] ∥ [y,x] where each batch
	// claims one query before the other does. Claims are too quick to
	// interleave on demand, so the test plays the [y,x] batch by hand: it
	// leads y, and while it still holds y it waits on x. The [x,y] batch
	// must forward and release x before it waits on y, or both block.
	t.Run("crossing-claims", func(t *testing.T) {
		inner, counting, j, srv := setup(t)
		ctx := context.Background()
		xkey, ykey := string(x.AppendKey(nil)), string(y.AppendKey(nil))
		recorded := func(key string) func() (hiddendb.Result, bool) {
			return func() (hiddendb.Result, bool) { return j.answers.GetString(key) }
		}
		flight := srv.memo.Flight
		if _, via := flight.Claim(ykey, recorded(ykey)); via != memo.Led {
			t.Fatalf("claim on a fresh key: %v, want Led", via)
		}
		batchErr := make(chan error, 1)
		go func() { batchErr <- batchAsk(x, y)(ctx, srv) }()
		inner.awaitArrival(t, "[x,y] forwarding x")
		close(inner.gate)
		waitX := make(chan error, 1)
		go func() {
			_, _, err := flight.Do(ctx, xkey, recorded(xkey), func() (hiddendb.Result, error) {
				return hiddendb.Result{}, errors.New("x fetched twice")
			})
			waitX <- err
		}()
		if err := within(t, waitX, "[y,x] waiting on x while leading y"); err != nil {
			t.Fatal(err)
		}
		res, err := counting.AnswerBatch(ctx, []dataspace.Query{y})
		if err != nil {
			t.Fatal(err)
		}
		j.record(ykey, y, res[0])
		flight.Release(ykey, res[0], true)
		if err := within(t, batchErr, "[x,y] waiting on y"); err != nil {
			t.Fatal(err)
		}
		checkPaid(t, counting, inner, j, srv, 2, 2, 1)
	})
}
