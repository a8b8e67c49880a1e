package hiddendb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hidb/internal/dataspace"
)

func TestSharedCachePolicyRoundTrip(t *testing.T) {
	for _, p := range []SharedCachePolicy{SharedOff, SharedFree, SharedCharged} {
		got, err := ParseSharedCachePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSharedCachePolicy(%q) = %v, %v; want %v, nil", p.String(), got, err, p)
		}
	}
	if _, err := ParseSharedCachePolicy("never"); err == nil {
		t.Error("ParseSharedCachePolicy accepted an unknown spelling")
	}
	if p, err := ParseSharedCachePolicy(""); err != nil || p != SharedOff {
		t.Errorf("empty spelling = %v, %v; want SharedOff, nil", p, err)
	}
}

// TestSharedViewSingleLeader: every query is paid by exactly one of the
// views racing on it — the tier's core guarantee.
func TestSharedViewSingleLeader(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(500, 1), 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	counting := NewCounting(srv)
	shared := NewShared(0)

	const views, queries = 8, 20
	qs := make([]dataspace.Query, queries)
	u := dataspace.UniverseQuery(sch)
	for i := range qs {
		qs[i] = u.WithRange(1, 0, int64(i))
	}
	var wg sync.WaitGroup
	vs := make([]*SharedView, views)
	for i := range vs {
		vs[i] = shared.View(counting)
		wg.Add(1)
		go func(v *SharedView) {
			defer wg.Done()
			for _, q := range qs {
				if _, err := v.Answer(context.Background(), q); err != nil {
					t.Errorf("Answer: %v", err)
				}
			}
		}(vs[i])
	}
	wg.Wait()

	if counting.Queries() != queries {
		t.Fatalf("store paid %d queries for %d distinct across %d views, want exactly %d",
			counting.Queries(), queries, views, queries)
	}
	if shared.Leads() != queries {
		t.Fatalf("Leads = %d, want %d", shared.Leads(), queries)
	}
	if free := shared.Hits() + shared.Waits(); free != (views-1)*queries {
		t.Fatalf("hits+waits = %d, want %d", free, (views-1)*queries)
	}
	var perView int
	for _, v := range vs {
		perView += v.Hits() + v.Waits() + v.Leads()
	}
	if perView != views*queries {
		t.Fatalf("per-view counters sum to %d, want %d", perView, views*queries)
	}
	if shared.Entries() != queries {
		t.Fatalf("Entries = %d, want %d", shared.Entries(), queries)
	}
	if n := shared.Stats().InFlight; n != 0 {
		t.Fatalf("in-flight registry not drained: %d", n)
	}
}

// TestSharedViewAnswersMatch: an answer served via the tier — hit, wait or
// lead — is the store's answer, bit for bit.
func TestSharedViewAnswersMatch(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(400, 7), 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewShared(0)
	v := shared.View(srv)
	u := dataspace.UniverseQuery(sch)
	for c := int64(1); c <= 4; c++ {
		q := u.WithValue(0, c)
		want, err := srv.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // lead, then hit
			got, err := v.Answer(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("round %d: overflow=%v len=%d, want %v %d",
					round, got.Overflow, len(got.Tuples), want.Overflow, len(want.Tuples))
			}
			for i := range got.Tuples {
				if fmt.Sprint(got.Tuples[i]) != fmt.Sprint(want.Tuples[i]) {
					t.Fatalf("round %d: tuple %d = %v, want %v", round, i, got.Tuples[i], want.Tuples[i])
				}
			}
		}
	}
	if v.Leads() != 4 || v.Hits() != 4 {
		t.Fatalf("leads=%d hits=%d, want 4 and 4", v.Leads(), v.Hits())
	}
}

// TestSharedViewBatchPrefix: a batch cut short below the tier still
// delivers the answered prefix, per the Server contract.
func TestSharedViewBatchPrefix(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(300, 3), 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	quota := NewQuota(srv, 2)
	shared := NewShared(0)
	v := shared.View(quota)
	u := dataspace.UniverseQuery(sch)
	qs := []dataspace.Query{u.WithValue(0, 1), u.WithValue(0, 2), u.WithValue(0, 3)}
	res, err := v.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if len(res) != 2 {
		t.Fatalf("answered prefix = %d, want 2", len(res))
	}
	// The failed third query must not have been published.
	if shared.Entries() != 2 {
		t.Fatalf("Entries = %d after a failed lead, want 2", shared.Entries())
	}
	// A second view with budget picks the two cached answers up free and
	// pays only the third.
	quota2 := NewQuota(srv, 2)
	v2 := shared.View(quota2)
	if _, err := v2.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatalf("follower batch: %v", err)
	}
	if quota2.Remaining() != 1 {
		t.Fatalf("follower paid %d, want 1 (two shared hits)", 2-quota2.Remaining())
	}
}

// callLog records the calls reaching a server: the width of each batch
// and the number of lone Answer calls.
type callLog struct {
	Server
	answers int
	batches []int
}

func (c *callLog) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	c.answers++
	return c.Server.Answer(ctx, q)
}

func (c *callLog) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	c.batches = append(c.batches, len(qs))
	return c.Server.AnswerBatch(ctx, qs)
}

// TestSharedViewBatchLeadsOneAtATime: each distinct miss of a batch
// reaches the view's inner server once, as its own one-query batch, and
// the view's hits, waits and leads are those of the same queries asked one
// at a time.
func TestSharedViewBatchLeadsOneAtATime(t *testing.T) {
	ctx := context.Background()
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(400, 11), 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)
	cached := []dataspace.Query{u.WithValue(0, 1), u.WithValue(0, 2)}
	a, b, c, d := u.WithRange(1, 0, 10), u.WithRange(1, 0, 20), u.WithValue(0, 3), u.WithValue(0, 4).WithRange(1, 5, 50)
	qs := []dataspace.Query{a, cached[0], b, a, c, cached[1], b, d}
	const misses = 4

	// run asks qs through a fresh view whose tier already holds cached.
	run := func(batch bool) (*SharedView, *callLog) {
		shared := NewShared(0)
		for _, q := range cached {
			if _, err := shared.View(srv).Answer(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		calls := &callLog{Server: srv}
		v := shared.View(calls)
		got := make([]Result, len(qs))
		if batch {
			res, err := v.AnswerBatch(ctx, qs)
			if err != nil || len(res) != len(qs) {
				t.Fatalf("AnswerBatch: %d of %d answered, %v", len(res), len(qs), err)
			}
			copy(got, res)
		} else {
			for i, q := range qs {
				if got[i], err = v.Answer(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, q := range qs {
			if want, _ := srv.Answer(ctx, q); !sameResult(got[i], want) {
				t.Fatalf("batch=%v: answer %d is not the store's", batch, i)
			}
		}
		return v, calls
	}

	v, calls := run(true)
	if calls.answers != 0 || fmt.Sprint(calls.batches) != "[1 1 1 1]" {
		t.Fatalf("the batch's %d misses reached the inner server as %d Answer calls and batches %v; want %d batches of 1",
			misses, calls.answers, calls.batches, misses)
	}
	ref, _ := run(false)
	got, want := [3]int{v.Hits(), v.Waits(), v.Leads()}, [3]int{ref.Hits(), ref.Waits(), ref.Leads()}
	if got != want || want != [3]int{len(qs) - misses, 0, misses} {
		t.Fatalf("batch hits, waits, leads = %v; one at a time %v; want both %v", got, want, [3]int{len(qs) - misses, 0, misses})
	}
}

// TestSharedViewBatchHoldsOneKey: a batch leads one key at a time. While
// its first lead is held up in the store, another view asking the batch's
// second query leads it at once instead of waiting for the batch.
func TestSharedViewBatchHoldsOneKey(t *testing.T) {
	ctx := context.Background()
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(200, 5), 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)
	a, b := u.WithValue(0, 1), u.WithValue(0, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gated := serverFunc{inner: srv, answer: func(ctx context.Context, q dataspace.Query) (Result, error) {
		once.Do(func() { close(entered); <-release })
		return srv.Answer(ctx, q)
	}}
	shared := NewShared(0)
	batchDone := make(chan error, 1)
	go func() {
		_, err := shared.View(gated).AnswerBatch(ctx, []dataspace.Query{a, b})
		batchDone <- err
	}()
	<-entered // the batch leads a, held in the store

	other := shared.View(srv)
	otherDone := make(chan error, 1)
	go func() {
		_, err := other.Answer(ctx, b)
		otherDone <- err
	}()
	select {
	case err := <-otherDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("the other view waited on b, a key the held batch had not reached")
	}
	close(release)
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	if other.Leads() != 1 || shared.Leads() != 2 {
		t.Fatalf("other view led %d, tier %d; want 1 and 2 (a by the batch, b by the other view)", other.Leads(), shared.Leads())
	}
}

// TestSharedBounded: a byte-bounded tier evicts old answers and re-pays
// them on the next ask — the cache is an optimization, never truth.
func TestSharedBounded(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(500, 5), 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	counting := NewCounting(srv)
	shared := NewShared(512) // tiny: a handful of answers fleet-wide
	v := shared.View(counting)
	u := dataspace.UniverseQuery(sch)
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := v.Answer(context.Background(), u.WithRange(1, 0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if shared.Evictions() == 0 {
		t.Fatal("tiny bound never evicted")
	}
	// Each shard may retain one entry over its budget (the never-evict-fresh
	// guarantee), so occupancy — not exact bytes — is what the bound pins.
	if shared.Entries() >= n {
		t.Fatalf("Entries = %d of %d inserted; bound held nothing", shared.Entries(), n)
	}
	// Re-asking everything still terminates and still answers correctly;
	// evicted entries are re-led.
	for i := 0; i < n; i++ {
		if _, err := v.Answer(context.Background(), u.WithRange(1, 0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if counting.Queries() < n {
		t.Fatalf("store paid %d < %d distinct queries", counting.Queries(), n)
	}
}

// TestSharedViewLeaderErrorNotCached: a leader's failure is returned to it
// alone and poisons nothing — the next asker leads again and succeeds.
func TestSharedViewLeaderErrorNotCached(t *testing.T) {
	sch := testSchema(t)
	srv, err := NewLocal(sch, testBag(200, 9), 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	failOnce := serverFunc{inner: srv, answer: func(ctx context.Context, q dataspace.Query) (Result, error) {
		if !failed {
			failed = true
			return Result{}, ErrInjected
		}
		return srv.Answer(ctx, q)
	}}
	shared := NewShared(0)
	v := shared.View(failOnce)
	q := dataspace.UniverseQuery(sch).WithValue(0, 1)
	if _, err := v.Answer(context.Background(), q); !errors.Is(err, ErrInjected) {
		t.Fatalf("first ask = %v, want injected fault", err)
	}
	if shared.Entries() != 0 {
		t.Fatal("failed lead was published")
	}
	if _, err := v.Answer(context.Background(), q); err != nil {
		t.Fatalf("retry after failed lead: %v", err)
	}
	// Only the successful, published lead is counted — a failed fetch
	// deposits nothing, so it is not a lead.
	if v.Leads() != 1 {
		t.Fatalf("Leads = %d, want 1 (the successful retry)", v.Leads())
	}
}

// serverFunc answers each query of a batch with answer (test seam).
type serverFunc struct {
	inner  Server
	answer func(ctx context.Context, q dataspace.Query) (Result, error)
}

func (s serverFunc) Answer(ctx context.Context, q dataspace.Query) (Result, error) {
	return Answer(ctx, s, q)
}

func (s serverFunc) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, error) {
	out := make([]Result, 0, len(qs))
	for _, q := range qs {
		res, err := s.answer(ctx, q)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (s serverFunc) K() int                    { return s.inner.K() }
func (s serverFunc) Schema() *dataspace.Schema { return s.inner.Schema() }
