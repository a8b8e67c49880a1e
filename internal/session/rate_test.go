package session

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// rateTable builds a session table with per-client throttling over a small
// random store.
func rateTable(t *testing.T, cfg Config) (*Table, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          300,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(srv, cfg), ds
}

// TestSessionRateLimitFreeTiers: burst queries pass immediately, and
// journal replays ride above the limiter — a replayed query needs no
// token, so resuming a journaled crawl is never throttled. On virtual
// time "immediately" is exact: the clock must not move at all.
func TestSessionRateLimitFreeTiers(t *testing.T) {
	clock := hiddendb.NewSimClock()
	tbl, ds := rateTable(t, Config{RatePerSecond: 0.5, RateBurst: 2})
	tbl.clock = clock
	sess, err := tbl.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	q1 := dataspace.UniverseQuery(ds.Schema).WithRange(1, 0, 10)
	q2 := dataspace.UniverseQuery(ds.Schema).WithRange(1, 11, 20)

	if _, err := sess.Server().Answer(context.Background(), q1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Server().Answer(context.Background(), q2); err != nil {
		t.Fatal(err)
	}
	// Replays of both paid queries: above the limiter, so no token and no
	// wait even though the bucket is now empty (refill is 2s/query).
	for _, q := range []dataspace.Query{q1, q2} {
		if _, err := sess.Server().Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := clock.Now(); elapsed != 0 {
		t.Fatalf("burst + replays waited %v — replays are being throttled", elapsed)
	}
	if sess.Queries() != 2 || sess.Replays() != 2 {
		t.Fatalf("paid %d / replayed %d, want 2 / 2", sess.Queries(), sess.Replays())
	}
}

// TestSessionRateLimitCancelsPromptly: a query waiting out the bucket
// aborts the moment its request ctx dies — a throttled client hanging up
// does not park a goroutine for the rest of the refill.
func TestSessionRateLimitCancelsPromptly(t *testing.T) {
	tbl, ds := rateTable(t, Config{RatePerSecond: 0.1, RateBurst: 1}) // 10s/query refill
	sess, err := tbl.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(ds.Schema)
	if _, err := sess.Server().Answer(context.Background(), u); err != nil {
		t.Fatal(err) // burst token
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Server().Answer(ctx, dataspace.UniverseQuery(ds.Schema).WithRange(1, 0, 5))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled throttle wait blocked %v", elapsed)
	}
	if sess.Queries() != 1 {
		t.Fatalf("cancelled wait paid a query: %d, want 1", sess.Queries())
	}
}

// TestRateClassResolution: tokens resolve to a named tier by prefix
// (before the first '-'), a resolved class replaces the table-wide rate
// wholesale — including an explicit unlimited tier — and everything else
// falls back to the flat rate. Classes shape timing only; Stats and
// ClassCounts expose who landed where. The table runs on virtual time, so
// every wait is asserted exactly.
func TestRateClassResolution(t *testing.T) {
	clock := hiddendb.NewSimClock()
	tbl, ds := rateTable(t, Config{
		// Flat rate so slow that any default-tier session issuing two
		// distinct queries would stall for seconds.
		RatePerSecond: 0.2,
		RateBurst:     1,
		RateClasses: []RateClass{
			{Name: "gold"},                           // PerSecond 0: explicit unlimited
			{Name: "slow", PerSecond: 0.1, Burst: 1}, // even tighter than flat
		},
	})
	tbl.clock = clock
	qs := distinctQueries(ds.Schema, 3)

	cases := []struct {
		token, class string
	}{
		{"gold-alice", "gold"}, // prefix match
		{"gold", ""},           // no '-': default tier
		{"-gold", ""},          // empty prefix: default tier
		{"silver-bob", ""},     // unknown prefix: default tier
		{"slow-carol", "slow"},
	}
	for _, c := range cases {
		sess, err := tbl.Get(c.token)
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.RateClass(); got != c.class {
			t.Errorf("token %q resolved to class %q, want %q", c.token, got, c.class)
		}
	}

	// The unlimited class must really be unthrottled: three distinct paid
	// queries, no waiting, while the flat rate would allow one per 5s.
	gold, _ := tbl.Get("gold-alice")
	for _, q := range qs {
		if _, err := gold.Server().Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := clock.Now(); elapsed != 0 {
		t.Fatalf("unlimited class waited %v; the flat rate leaked through", elapsed)
	}
	if gold.Queries() != 3 {
		t.Fatalf("gold session paid %d queries, want 3 (classes change timing, never counts)", gold.Queries())
	}
	// The default tier is throttled at the flat rate: its burst query is
	// free, and the next one waits exactly 1/0.2 qps.
	bob, _ := tbl.Get("silver-bob")
	for i, want := range []time.Duration{0, 5 * time.Second} {
		if _, err := bob.Server().Answer(context.Background(), qs[i]); err != nil {
			t.Fatal(err)
		}
		if got := clock.Now(); got != want {
			t.Fatalf("default-tier query %d left the clock at %v, want %v", i, got, want)
		}
	}

	// Snapshots carry the resolved class, and ClassCounts aggregates only
	// classed sessions — default-tier tokens are not listed.
	byToken := map[string]string{}
	for _, st := range tbl.Stats() {
		byToken[st.Token] = st.RateClass
	}
	if byToken["gold-alice"] != "gold" || byToken["slow-carol"] != "slow" || byToken["silver-bob"] != "" {
		t.Errorf("Stats rate classes wrong: %v", byToken)
	}
	counts := tbl.ClassCounts()
	if counts["gold"] != 1 || counts["slow"] != 1 || len(counts) != 2 {
		t.Errorf("ClassCounts = %v, want map[gold:1 slow:1]", counts)
	}
}

// TestRateClassCustomResolver: Config.RateClassFor overrides the prefix
// rule entirely — here a suffix convention routes tokens to their tier.
func TestRateClassCustomResolver(t *testing.T) {
	tbl, _ := rateTable(t, Config{
		RateClasses: []RateClass{{Name: "vip"}},
		RateClassFor: func(token string) string {
			if strings.HasSuffix(token, "!") {
				return "vip"
			}
			return ""
		},
	})
	vip, err := tbl.Get("alice!")
	if err != nil {
		t.Fatal(err)
	}
	if vip.RateClass() != "vip" {
		t.Errorf("suffix token resolved to %q, want vip", vip.RateClass())
	}
	// With a custom resolver the prefix rule must not apply.
	plain, err := tbl.Get("vip-bob")
	if err != nil {
		t.Fatal(err)
	}
	if plain.RateClass() != "" {
		t.Errorf("prefix rule leaked through custom resolver: %q", plain.RateClass())
	}
}
