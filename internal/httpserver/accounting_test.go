package httpserver

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/session"
	"hidb/internal/simrand"
)

// ledger is a test-only store decorator: it counts the answers the shared
// store returns — what the fleet actually paid for — so a test can hold
// every session's books against it. Each call takes a millisecond, so
// concurrent asks for one query overlap while it is in flight.
type ledger struct {
	hiddendb.Server
	paid atomic.Int64
}

func (l *ledger) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	return hiddendb.Answer(ctx, l, q)
}

func (l *ledger) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	time.Sleep(time.Millisecond)
	res, err := l.Server.AnswerBatch(ctx, qs)
	l.paid.Add(int64(len(res)))
	return res, err
}

// balance asserts a lone token's books: its counter, the budget its quota
// spent, its journal length and the store's paid count are one number —
// want, the queries the sequential reference paid.
func (l *ledger) balance(t *testing.T, sess *session.Session, quota, want int) {
	t.Helper()
	got := [4]int{sess.Queries(), quota - sess.Remaining(), sess.JournalLen(), int(l.paid.Load())}
	if got != [4]int{want, want, want, want} {
		t.Fatalf("counter, quota spent, journal length, store paid = %v; want all %d (the sequential reference)", got, want)
	}
}

// askScript is one client goroutine's traffic: each step is a /query (one
// query) or a /batch (several), drawn from a pool every goroutine shares.
type askScript [][]dataspace.Query

func randomScripts(rng *simrand.RNG, pool []dataspace.Query, goroutines, steps int) []askScript {
	scripts := make([]askScript, goroutines)
	for g := range scripts {
		for s := 0; s < steps; s++ {
			n := 1
			if rng.Bool(0.5) {
				n = int(rng.IntRange(1, 6))
			}
			step := make([]dataspace.Query, n)
			for i := range step {
				step[i] = pool[rng.Intn(len(pool))]
			}
			scripts[g] = append(scripts[g], step)
		}
	}
	return scripts
}

// TestAccountingInvariant runs randomized session stacks — every shared
// cache policy, paper mode included, crossed with every kind of rate class
// — under concurrent /query and /batch traffic on one token, and holds the
// token's books to the sequential reference: however the asks race, each
// distinct query is charged, debited, journaled and paid by the store
// exactly once. Paper mode is the sharp case: no fleet-tier flight sits
// under the journal to absorb a double charge.
func TestAccountingInvariant(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          300,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	const quota = 1 << 20
	classes := []session.RateClass{{Name: "gold", PerSecond: 1e6, Burst: 1 << 20}, {Name: "free"}}
	policies := []hiddendb.SharedCachePolicy{hiddendb.SharedOff, hiddendb.SharedFree, hiddendb.SharedCharged}
	// token → the rate class it resolves to: the flat table-wide rate,
	// a throttled class and an explicitly unlimited one.
	tokens := []struct{ token, class string }{{"alice", ""}, {"gold-alice", "gold"}, {"free-alice", "free"}}

	seed := uint64(0)
	for _, policy := range policies {
		for _, tc := range tokens {
			token, class := tc.token, tc.class
			for rep := 0; rep < 2; rep++ {
				seed++
				rng := simrand.New(seed)
				pool := testBatch(ds.Schema, int(rng.IntRange(8, 24)), seed)
				scripts := randomScripts(rng, pool, int(rng.IntRange(4, 8)), 16)
				name := fmt.Sprintf("%s/%s/seed=%d", policy, token, seed)
				t.Run(name, func(t *testing.T) {
					// The sequential reference: the same asks, one at a
					// time, through a paper-mode session.
					refTbl := session.NewTable(local, session.Config{})
					ref, err := refTbl.Get(token)
					if err != nil {
						t.Fatal(err)
					}
					for _, script := range scripts {
						for _, step := range script {
							for _, q := range step {
								if _, err := ref.Server().Answer(context.Background(), q); err != nil {
									t.Fatal(err)
								}
							}
						}
					}

					store := &ledger{Server: local}
					h := New(store, WithSessions(session.Config{
						Quota:         quota,
						RatePerSecond: 1e6,
						RateClasses:   classes,
						SharedCache:   policy,
					}))
					ts := httptest.NewServer(h)
					defer ts.Close()
					var wg sync.WaitGroup
					start := make(chan struct{})
					for g, script := range scripts {
						c, err := httpclient.DialToken(context.Background(), ts.URL, token, nil)
						if err != nil {
							t.Fatal(err)
						}
						wg.Add(1)
						go func(g int, script askScript) {
							defer wg.Done()
							<-start
							for _, step := range script {
								var err error
								if len(step) == 1 {
									_, err = c.Answer(context.Background(), step[0])
								} else {
									_, err = c.AnswerBatch(context.Background(), step)
								}
								if err != nil {
									t.Errorf("client %d: %v", g, err)
									return
								}
							}
						}(g, script)
					}
					close(start)
					wg.Wait()
					if t.Failed() {
						t.FailNow()
					}
					sess, err := h.Sessions().Get(token)
					if err != nil {
						t.Fatal(err)
					}
					rateClass := "(no session)"
					for _, st := range h.Sessions().Stats() {
						if st.Token == token {
							rateClass = st.RateClass
						}
					}
					if rateClass != class {
						t.Fatalf("token %q resolved to rate class %q, want %q", token, rateClass, class)
					}
					store.balance(t, sess, quota, ref.Queries())
				})
			}
		}
	}
}
