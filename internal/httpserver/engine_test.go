package httpserver

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/diskstore"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// TestStatsEngineMem: GET /stats identifies the in-memory engine behind a
// local server.
func TestStatsEngineMem(t *testing.T) {
	h, _ := sessionHandler(t, 200, 10, session.Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg wire.StatsMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Engine == nil {
		t.Fatal("stats: no engine block from a local store")
	}
	if msg.Engine.Kind != "mem" {
		t.Errorf("mem engine stats: %+v", msg.Engine)
	}
}

// TestEngineStatsDisk is the end-to-end disk-engine wiring test: a session
// handler over a disk store built from the server's own rank permutation
// serves a /crawl whose terminal event and /stats both identify the disk
// engine — and the crawl pays exactly the query count of the same crawl
// against the in-memory engine.
func TestEngineStatsDisk(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          400,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 1000}},
		DupRate:    0.05,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k, seed = 10, 42
	mem, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.hidb")
	if err := diskstore.Build(path, ds.Schema, slices.Values(hiddendb.RankOrder(ds.Tuples, seed)), diskstore.BuildOptions{Bands: 2}); err != nil {
		t.Fatal(err)
	}
	store, err := diskstore.Open(path, diskstore.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	disk, err := hiddendb.NewLocalEngine(store, k)
	if err != nil {
		t.Fatal(err)
	}

	crawlQueries := func(srv hiddendb.Server) (int, *wire.CrawlEvent) {
		ts := httptest.NewServer(New(srv, WithSessions(session.Config{})))
		defer ts.Close()
		c, err := httpclient.DialToken(context.Background(), ts.URL, "tok", nil)
		if err != nil {
			t.Fatal(err)
		}
		var terminal *wire.CrawlEvent
		res, err := c.Crawl(context.Background(), "", 0, func(ev wire.CrawlEvent) {
			if ev.Done {
				terminal = &ev
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatalf("crawl incomplete: %d of %d tuples", len(res.Tuples), len(ds.Tuples))
		}
		return res.Queries, terminal
	}

	memQ, memEv := crawlQueries(mem)
	diskQ, diskEv := crawlQueries(disk)
	if diskQ != memQ {
		t.Errorf("disk crawl paid %d queries, mem paid %d — the engine swap changed the cost metric", diskQ, memQ)
	}
	if memEv == nil || memEv.Engine == nil || memEv.Engine.Kind != "mem" {
		t.Errorf("mem terminal event engine: %+v", memEv.Engine)
	}
	if diskEv == nil || diskEv.Engine == nil || diskEv.Engine.Kind != "disk" {
		t.Fatalf("disk terminal event engine: %+v", diskEv.Engine)
	}

	// /stats over the disk handler reports the same identity.
	ts := httptest.NewServer(New(disk, WithSessions(session.Config{})))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg wire.StatsMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Engine == nil || msg.Engine.Kind != "disk" {
		t.Fatalf("disk /stats engine: %+v", msg.Engine)
	}
}
