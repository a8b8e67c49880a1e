package httpclient

import (
	"context"
	"errors"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpserver"
	"hidb/internal/session"
)

func startServer(t *testing.T, ds *datagen.Dataset, k, quota int) (*httptest.Server, *hiddendb.Local) {
	t.Helper()
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpserver.New(local, httpserver.WithSessions(session.Config{Quota: quota})))
	t.Cleanup(ts.Close)
	return ts, local
}

func mixedDataset(t *testing.T, n int) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          n,
		CatDomains: []int{4, 9},
		NumRanges:  [][2]int64{{0, 5000}},
		Skew:       0.6,
		DupRate:    0.05,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDialDiscoversSchema(t *testing.T) {
	ds := mixedDataset(t, 200)
	ts, _ := startServer(t, ds, 16, 0)
	c, err := Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 16 {
		t.Fatalf("K = %d, want 16", c.K())
	}
	if c.Schema().String() != ds.Schema.String() {
		t.Fatalf("schema mismatch: %s", c.Schema())
	}
}

// TestQuotaRejectionsKeepConnection: the client drains a 429 before
// closing it, so the transport keeps the keep-alive connection: the dial,
// the one query the quota admits and 20 quota-rejected queries after it
// all share one connection.
func TestQuotaRejectionsKeepConnection(t *testing.T) {
	ds := mixedDataset(t, 200)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(httpserver.New(local, httpserver.WithSessions(session.Config{Quota: 1})))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	ctx := context.Background()
	c, err := Dial(ctx, ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(ds.Schema)
	if _, err := c.Answer(ctx, u); err != nil {
		t.Fatal(err)
	}
	for i := range int64(20) {
		if _, err := c.Answer(ctx, u.WithRange(2, i, i)); !errors.Is(err, hiddendb.ErrQuotaExceeded) {
			t.Fatalf("query %d over the quota: %v, want ErrQuotaExceeded", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections opened, want 1", n)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(context.Background(), "http://127.0.0.1:1", nil); err == nil {
		t.Error("dial to dead address succeeded")
	}
	// A server that serves garbage on /schema.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer bad.Close()
	if _, err := Dial(context.Background(), bad.URL, nil); err == nil {
		t.Error("garbage schema accepted")
	}
	// A server that 500s.
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer boom.Close()
	if _, err := Dial(context.Background(), boom.URL, nil); err == nil {
		t.Error("500 schema accepted")
	}
}

func TestAnswerMatchesLocal(t *testing.T) {
	ds := mixedDataset(t, 500)
	ts, local := startServer(t, ds, 16, 0)
	c, err := Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []dataspace.Query{
		dataspace.UniverseQuery(c.Schema()),
		dataspace.UniverseQuery(c.Schema()).WithValue(0, 2),
		dataspace.UniverseQuery(c.Schema()).WithRange(2, 100, 400),
		dataspace.UniverseQuery(c.Schema()).WithValue(0, 1).WithValue(1, 3).WithRange(2, 0, 50),
	}
	for _, q := range queries {
		remote, err := c.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("remote answer for %s: %v", q, err)
		}
		// Re-ask locally with a schema-matched query (the remote client
		// has its own schema instance).
		lq := dataspace.UniverseQuery(local.Schema())
		for i := 0; i < local.Schema().Dims(); i++ {
			p := q.Pred(i)
			if local.Schema().Attr(i).Kind == dataspace.Categorical {
				if !p.Wild {
					lq = lq.WithValue(i, p.Value)
				}
			} else {
				lq = lq.WithRange(i, p.Lo, p.Hi)
			}
		}
		want, err := local.Answer(context.Background(), lq)
		if err != nil {
			t.Fatal(err)
		}
		if remote.Overflow != want.Overflow || len(remote.Tuples) != len(want.Tuples) {
			t.Fatalf("remote/local divergence on %s: (%v,%d) vs (%v,%d)",
				q, remote.Overflow, len(remote.Tuples), want.Overflow, len(want.Tuples))
		}
		for i := range remote.Tuples {
			if !remote.Tuples[i].Equal(want.Tuples[i]) {
				t.Fatalf("tuple %d differs over the wire", i)
			}
		}
	}
}

// pathCounter is an http.RoundTripper that counts requests by path.
type pathCounter map[string]int

func (p pathCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	p[r.URL.Path]++
	return http.DefaultTransport.RoundTrip(r)
}

// TestRemoteCrawlEqualsLocal is the end-to-end property: the full crawl
// through HTTP retrieves the same bag with the same query count as the
// in-process crawl, one POST /query per paid query.
func TestRemoteCrawlEqualsLocal(t *testing.T) {
	ds := mixedDataset(t, 2000)
	ts, local := startServer(t, ds, 32, 0)
	paths := pathCounter{}
	c, err := Dial(context.Background(), ts.URL, &http.Client{Transport: paths})
	if err != nil {
		t.Fatal(err)
	}
	remoteRes, err := core.Hybrid{}.Crawl(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := core.Hybrid{}.Crawl(context.Background(), local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !remoteRes.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatal("remote crawl incomplete")
	}
	if remoteRes.Queries != localRes.Queries {
		t.Fatalf("remote crawl cost %d != local %d", remoteRes.Queries, localRes.Queries)
	}
	if want := (pathCounter{"/schema": 1, "/query": remoteRes.Queries}); !maps.Equal(paths, want) {
		t.Fatalf("a sequential crawl sent %v, want %v", paths, want)
	}
}

func TestQuotaSurfacesTyped(t *testing.T) {
	ds := mixedDataset(t, 2000)
	ts, _ := startServer(t, ds, 16, 5)
	c, err := Dial(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Hybrid{}.Crawl(context.Background(), c, nil)
	if !errors.Is(err, hiddendb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}
