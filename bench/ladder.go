package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/httpserver"
	"hidb/internal/session"
	"hidb/internal/wire"
)

const (
	// ladderQueries caps the replayed journal: a YahooLike crawl's whole
	// journal, the first ladderQueries queries of the longer disk crawl.
	ladderQueries = 1064
	ladderReps    = 5
	ladderToken   = "ladder"
)

// ask answers one query through a rung's stack.
type ask func(dataspace.Query) (hiddendb.Result, error)

// rung is one step of the ladder. Each rung runs the whole stack of the
// rung before it plus one more layer, so a layer's per-query cost is the
// difference between adjacent rungs.
type rung struct {
	name string
	// fresh builds the rung's stack for one replay: every replay starts
	// from an empty session, so each query is paid again.
	fresh func() (ask, error)
}

// rungCost is one rung's median cost per replayed query.
type rungCost struct {
	name                       string
	nsPerQuery, allocsPerQuery float64
}

// ladder replays the reference journal, in crawl order and on the warm
// engine, through each rung in turn, ladderReps times per rung. It returns
// the rungs' costs, innermost first, and the number of replays in which
// some answer differed from the journal.
func ladder(ctx context.Context, r *rig) ([]rungCost, int, error) {
	journal := r.journal[:min(len(r.journal), ladderQueries)]
	schema, k, cfg := r.local.Schema(), r.spec.k, r.spec.sessions

	lb, err := listen()
	if err != nil {
		return nil, 0, err
	}
	defer lb.close()
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	lb.swap(httpserver.New(r.local, httpserver.WithSessions(cfg)))
	client, err := httpclient.Dial(ctx, lb.url, &http.Client{Transport: tr})
	if err != nil {
		return nil, 0, err
	}
	sessionStack := func() (hiddendb.Server, error) {
		sess, err := session.NewTable(r.local, cfg).Get(ladderToken)
		if err != nil {
			return nil, err
		}
		return sess.Server(), nil
	}

	rungs := []rung{
		{"index", func() (ask, error) {
			return func(q dataspace.Query) (hiddendb.Result, error) {
				got := r.spec.engine.Select(q, k)
				if len(got) > k {
					return hiddendb.Result{Tuples: got[:k], Overflow: true}, nil
				}
				return hiddendb.Result{Tuples: got}, nil
			}, nil
		}},
		{"hiddendb", func() (ask, error) {
			return func(q dataspace.Query) (hiddendb.Result, error) { return r.local.Answer(ctx, q) }, nil
		}},
		{"session", func() (ask, error) {
			srv, err := sessionStack()
			if err != nil {
				return nil, err
			}
			return func(q dataspace.Query) (hiddendb.Result, error) { return srv.Answer(ctx, q) }, nil
		}},
		{"wire", func() (ask, error) {
			srv, err := sessionStack()
			if err != nil {
				return nil, err
			}
			// The codec calls mirror httpclient and httpserver: the client
			// marshals the query, the server decodes it from the body and
			// encodes its answer, the client decodes that.
			var buf bytes.Buffer
			return func(q dataspace.Query) (hiddendb.Result, error) {
				body, err := json.Marshal(wire.EncodeQuery(q))
				if err != nil {
					return hiddendb.Result{}, err
				}
				var qm wire.QueryMsg
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&qm); err != nil {
					return hiddendb.Result{}, err
				}
				sq, err := wire.DecodeQuery(schema, qm)
				if err != nil {
					return hiddendb.Result{}, err
				}
				res, err := srv.Answer(ctx, sq)
				if err != nil {
					return hiddendb.Result{}, err
				}
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(wire.EncodeResult(res)); err != nil {
					return hiddendb.Result{}, err
				}
				var rm wire.ResultMsg
				if err := json.NewDecoder(&buf).Decode(&rm); err != nil {
					return hiddendb.Result{}, err
				}
				return wire.DecodeResult(schema, rm)
			}, nil
		}},
		{"httpserver", func() (ask, error) {
			h := httpserver.New(r.local, httpserver.WithSessions(cfg))
			return func(q dataspace.Query) (hiddendb.Result, error) {
				body, err := json.Marshal(wire.EncodeQuery(q))
				if err != nil {
					return hiddendb.Result{}, err
				}
				req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				wire.SetBearer(req.Header, ladderToken)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return hiddendb.Result{}, fmt.Errorf("POST /query: %d %s", rec.Code, rec.Body)
				}
				var rm wire.ResultMsg
				if err := json.NewDecoder(rec.Body).Decode(&rm); err != nil {
					return hiddendb.Result{}, err
				}
				return wire.DecodeResult(schema, rm)
			}, nil
		}},
		{"httpclient", func() (ask, error) {
			lb.swap(httpserver.New(r.local, httpserver.WithSessions(cfg)))
			return func(q dataspace.Query) (hiddendb.Result, error) { return client.Answer(ctx, q) }, nil
		}},
	}

	// Rungs take turns within each repetition, so host drift over the
	// ladder's run moves every rung alike, and each repetition starts one
	// rung later, so no rung always runs right after the socket-heavy
	// httpclient rung.
	ns := make([][]float64, len(rungs))
	allocs := make([][]float64, len(rungs))
	failed := 0
	for rep := range ladderReps {
		for i := range rungs {
			j := (rep + i) % len(rungs)
			a, err := rungs[j].fresh()
			if err != nil {
				return nil, 0, fmt.Errorf("ladder rung %s: %w", rungs[j].name, err)
			}
			runtime.GC()
			mismatch := false
			m0, t0 := mallocs(), time.Now()
			for _, e := range journal {
				res, err := a(e.q)
				if err != nil || res.Overflow != e.res.Overflow || len(res.Tuples) != len(e.res.Tuples) {
					mismatch = true
				}
			}
			d, m := time.Since(t0), mallocs()-m0
			if mismatch {
				failed++
			}
			ns[j] = append(ns[j], float64(d.Nanoseconds())/float64(len(journal)))
			allocs[j] = append(allocs[j], float64(m)/float64(len(journal)))
		}
	}
	costs := make([]rungCost, len(rungs))
	for j, rg := range rungs {
		costs[j] = rungCost{name: rg.name, nsPerQuery: median(ns[j]), allocsPerQuery: median(allocs[j])}
	}
	return costs, failed, nil
}
