package httpserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/session"

	"net/http/httptest"
)

// slowSharded builds a session handler over a sharded store behind a small
// simulated latency, so a server-side crawl is slow enough for a client
// disconnect to land mid-stream deterministically.
func slowSharded(t *testing.T, n, k int, delay time.Duration, cfg session.Config) (*Handler, *datagen.Dataset, *hiddendb.Local) {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          n,
		CatDomains: []int{4, 6},
		NumRanges:  [][2]int64{{0, 5000}},
		Skew:       0.5,
		DupRate:    0.05,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocalSharded(ds.Schema, ds.Tuples, k, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	var shared hiddendb.Server = local
	if delay > 0 {
		shared = hiddendb.NewLatency(shared, delay, hiddendb.Wall)
	}
	return New(shared, WithSessions(cfg)), ds, local
}

// settledQueries polls the session's paid-query counter until it stops
// moving — the observable sign the server-side crawl has wound down.
func settledQueries(t *testing.T, sess *session.Session) int {
	t.Helper()
	prev := -1
	for i := 0; i < 100; i++ {
		cur := sess.Queries()
		if cur == prev {
			return cur
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session still paying queries after 2s — the disconnected crawl was not cancelled")
	return 0
}

// TestCrawlSeqCancelAndResumeCursor is the acceptance scenario: a client
// cancels CrawlSeq after N tuples (tearing down the stream cancels the
// server-side crawl), and a second /crawl with the resume cursor finishes
// the extraction paying only for queries not already journaled and
// receiving no tuple twice.
func TestCrawlSeqCancelAndResumeCursor(t *testing.T) {
	h, ds, _ := slowSharded(t, 2000, 16, time.Millisecond, session.Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Reference: what the same algorithm costs uninterrupted.
	refSrv, err := hiddendb.NewLocalSharded(ds.Schema, ds.Tuples, 16, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.ForSchema(ds.Schema).Crawl(context.Background(), refSrv, nil)
	if err != nil {
		t.Fatal(err)
	}

	c, err := httpclient.DialToken(context.Background(), ts.URL, "resumer", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: consume N tuples, then break — the stream tears down and
	// the server cancels this session's crawl.
	const cutoff = 25
	var head dataspace.Bag
	for tuple, err := range c.CrawlSeq(context.Background(), "", 0) {
		if err != nil {
			t.Fatalf("stream error before the cutoff: %v", err)
		}
		head = append(head, tuple)
		if len(head) == cutoff {
			break
		}
	}
	sess, err := h.Sessions().Get("resumer")
	if err != nil {
		t.Fatal(err)
	}
	interrupted := settledQueries(t, sess)
	if interrupted >= ref.Queries {
		t.Fatalf("disconnect did not cancel the crawl: session paid %d of %d reference queries", interrupted, ref.Queries)
	}
	if interrupted == 0 {
		t.Fatal("no queries paid before the cutoff — test is vacuous")
	}
	if jl := sess.JournalLen(); jl != interrupted {
		t.Fatalf("journal holds %d entries for %d paid queries", jl, interrupted)
	}

	// Phase 2: resume with the cursor. The journal replays the paid
	// prefix for free; the stream starts past the tuples already held.
	rest, err := c.Crawl(context.Background(), "", len(head), nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rest.Skipped != len(head) {
		t.Errorf("server skipped %d tuples, want %d", rest.Skipped, len(head))
	}
	combined := append(head, rest.Tuples...)
	if !combined.EqualMultiset(ds.Tuples) {
		t.Fatalf("resumed extraction incomplete or duplicated: %d tuples vs %d", len(combined), len(ds.Tuples))
	}
	if sess.Queries() != ref.Queries {
		t.Errorf("total paid %d queries, want the reference %d — the resume re-paid journaled queries", sess.Queries(), ref.Queries)
	}
	if rest.Queries != ref.Queries {
		t.Errorf("resume reported %d total paid queries, want %d", rest.Queries, ref.Queries)
	}
}

// TestCrawlDisconnectIsolation is the two-token regression: a client that
// disconnects mid-/crawl cancels only its own session's in-flight work;
// a concurrent crawl on another token over the same sharded store runs to
// completion at full fidelity.
func TestCrawlDisconnectIsolation(t *testing.T) {
	h, ds, _ := slowSharded(t, 2000, 16, time.Millisecond, session.Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	steady, err := httpclient.DialToken(context.Background(), ts.URL, "steady", nil)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := httpclient.DialToken(context.Background(), ts.URL, "flaky", nil)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *httpclient.CrawlResult
		err error
	}
	steadyDone := make(chan outcome, 1)
	go func() {
		res, err := steady.Crawl(context.Background(), "", 0, nil)
		steadyDone <- outcome{res, err}
	}()

	// flaky hangs up a few tuples in, while steady's crawl is mid-flight.
	got := 0
	for _, err := range flaky.CrawlSeq(context.Background(), "", 0) {
		if err != nil {
			t.Fatalf("flaky stream error: %v", err)
		}
		if got++; got == 10 {
			break
		}
	}

	out := <-steadyDone
	if out.err != nil {
		t.Fatalf("steady crawl failed after flaky's disconnect: %v", out.err)
	}
	if !out.res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatalf("steady crawl incomplete after flaky's disconnect: %d of %d tuples",
			len(out.res.Tuples), len(ds.Tuples))
	}

	// flaky's own crawl was cancelled, not steady's.
	fs, err := h.Sessions().Get("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if paid := settledQueries(t, fs); paid >= out.res.Queries {
		t.Errorf("flaky paid %d queries after disconnecting at 10 tuples; steady's full crawl cost %d", paid, out.res.Queries)
	}
}

// TestCrawlStreamRejectsNegativeCursor: a malformed resume cursor is a 400,
// not a stream.
func TestCrawlStreamRejectsNegativeCursor(t *testing.T) {
	h, _ := sessionHandler(t, 100, 10, session.Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c, err := httpclient.DialToken(context.Background(), ts.URL, "neg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Crawl(context.Background(), "", -1, nil); err == nil || errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("negative cursor: err = %v, want a bad-request error", err)
	}
}
