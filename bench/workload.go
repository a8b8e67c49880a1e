package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/diskstore"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/httpserver"
	"hidb/internal/index"
	"hidb/internal/parallel"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// config is one run's settings.
type config struct {
	// seed derives every dataset seed; defaultSeed reproduces the
	// repository's pinned setups.
	seed    uint64
	seconds time.Duration
	trace   bool
	// workdir holds the disk workload's store file ("" = system temp).
	workdir string
	// small swaps in tiny datasets (YahooLikeN(3000), Tier10K) for tests.
	small bool
}

const (
	defaultSeed = 1
	yahooK      = 256
	diskK       = 1000
)

// pinnedPaid is each workload's paid queries per crawl (per round for
// fleet-http) at the default seed: the paper's cost on the repository's
// pinned datasets (YahooLike k=256 pays 1064; the Pathological 1M tier at
// k=1000 pays 4398).
var pinnedPaid = map[string]int{
	"crawl-seq-http": 1064,
	"crawl-par-http": 1064,
	"crawl-1m-disk":  4398,
	"fleet-http":     1064,
}

// workload is one closed-loop benchmark workload. Why each exists is in
// README.md and BENCHMARK.json.
type workload struct {
	name  string
	setup func(ctx context.Context, cfg config) (*rig, error)
}

var workloads = []workload{
	{"crawl-seq-http", func(ctx context.Context, cfg config) (*rig, error) {
		return yahooRig(ctx, cfg, 1, rigSpec{clients: 1, crawls: 1})
	}},
	{"crawl-par-http", func(ctx context.Context, cfg config) (*rig, error) {
		// 16 workers, default batch width 16 and 2 round trips in flight:
		// at most 2 connections.
		return yahooRig(ctx, cfg, 2, rigSpec{clients: 1, crawls: 1, crawler: parallel.Crawler{Workers: 16}})
	}},
	{"crawl-1m-disk", setupDisk},
	{"fleet-http", func(ctx context.Context, cfg config) (*rig, error) {
		// Two crawlers, each crawling twice: the first crawls pay once
		// fleet-wide (one leads, the other hits or waits), the second
		// crawls replay their own journals.
		return yahooRig(ctx, cfg, 1, rigSpec{clients: 2, crawls: 2,
			sessions: session.Config{SharedCache: hiddendb.SharedFree}})
	}},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// yahooRig serves the YahooLike dataset over HTTP from an in-memory store
// of the given shard count, crawled by spec.crawler (default: the paper's
// algorithm for the schema).
func yahooRig(ctx context.Context, cfg config, shards int, spec rigSpec) (*rig, error) {
	dataSeed, prioSeed := 10+cfg.seed, 41+cfg.seed
	n := datagen.YahooN
	if cfg.small {
		n = 3000
	}
	ds := datagen.YahooLikeN(n, dataSeed)
	byRank := hiddendb.RankOrder(ds.Tuples, prioSeed)
	var err error
	if shards == 1 {
		spec.engine, err = index.New(ds.Schema, byRank)
	} else {
		spec.engine, err = index.NewSharded(ds.Schema, byRank, shards)
	}
	if err != nil {
		return nil, err
	}
	spec.k, spec.want, spec.http = yahooK, fingerprintOf(ds.Tuples), true
	if spec.crawler == nil {
		spec.crawler = core.ForSchema(ds.Schema)
	}
	return newRig(ctx, cfg, spec)
}

// setupDisk streams the Pathological tier into a one-band disk store under
// the work directory and opens it with the default block cache.
func setupDisk(ctx context.Context, cfg config) (*rig, error) {
	tier := datagen.Tier1M
	if cfg.small {
		tier = datagen.Tier10K
	}
	dir, err := os.MkdirTemp(cfg.workdir, "disk-*")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "patho.hidb")
	sch := datagen.TierSchema(tier)
	var want fingerprint
	rows := datagen.TieredSeq(datagen.PatternPathological, tier, cfg.seed)
	err = diskstore.Build(path, sch, func(yield func(dataspace.Tuple) bool) {
		for t := range rows {
			want.add(t)
			if !yield(t) {
				return
			}
		}
	}, diskstore.BuildOptions{Bands: 1})
	var store *diskstore.Store
	if err == nil {
		store, err = diskstore.Open(path, diskstore.OpenOptions{})
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return newRig(ctx, cfg, rigSpec{engine: store, k: diskK, want: want, clients: 1, crawls: 1,
		crawler: core.ForSchema(sch), release: func() {
			store.Close()
			os.RemoveAll(dir)
		}})
}

// rigSpec describes a workload's stack.
type rigSpec struct {
	engine index.Engine
	k      int
	want   fingerprint
	// http serves the store over a loopback listener with sessions on;
	// otherwise the crawler calls hiddendb.Local in-process.
	http     bool
	sessions session.Config
	// clients crawl concurrently, each with its own token and connection;
	// each runs crawls complete extractions per round.
	clients, crawls int
	crawler         core.Crawler
	release         func()
}

// rig is a set-up workload: the store, the untraced stack and, in a traced
// run, the traced stack beside it over the same warm engine.
type rig struct {
	spec rigSpec
	// local is the untraced hiddendb.Local; stacks[0] the untraced stack,
	// stacks[1] the traced one (nil in an untraced run).
	local  *hiddendb.Local
	stacks [2]*stack
	rec    *recorder
	lb     *loopback
	stats  *http.Client
	trs    []*http.Transport
	rounds uint32
	// paid is the reference crawl's cost and journal its queries in crawl
	// order.
	paid    int
	journal []entry
}

// stack is one way of wiring the crawler to the store.
type stack struct {
	server  hiddendb.Server // what the HTTP handler (or the crawler) serves from
	clients []*callTimer
	traced  bool
}

// newRig wires the stacks over spec.engine and warms them up. On failure
// everything built so far, spec.release included, is released.
func newRig(ctx context.Context, cfg config, spec rigSpec) (*rig, error) {
	r := &rig{spec: spec}
	if err := r.build(ctx, cfg); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) build(ctx context.Context, cfg config) error {
	spec := r.spec
	var err error
	if r.local, err = hiddendb.NewLocalEngine(spec.engine, spec.k); err != nil {
		return err
	}
	r.stacks[0] = &stack{server: r.local}
	if cfg.trace {
		r.rec = newRecorder()
		tl, err := hiddendb.NewLocalEngine(&tracedEngine{Engine: spec.engine, rec: r.rec}, spec.k)
		if err != nil {
			return err
		}
		r.stacks[1] = &stack{server: tl, traced: true}
		if spec.http {
			r.stacks[1].server = &tracedLocal{Local: tl, rec: r.rec}
		}
	}
	if spec.http {
		if err := r.dial(ctx); err != nil {
			return err
		}
	} else {
		for _, st := range r.present() {
			st.clients = []*callTimer{{inner: st.server, layer: lLocal, rec: r.recOf(st)}}
		}
	}
	return r.warmUp(ctx)
}

func (r *rig) present() []*stack {
	if r.stacks[1] == nil {
		return r.stacks[:1]
	}
	return r.stacks[:]
}

func (r *rig) recOf(st *stack) *recorder {
	if st.traced {
		return r.rec
	}
	return nil
}

// dial starts the loopback server and connects the crawlers. Crawler i of
// both stacks shares one transport, so the process never holds more than
// two connections.
func (r *rig) dial(ctx context.Context) error {
	lb, err := listen()
	if err != nil {
		return err
	}
	r.lb = lb
	lb.swap(httpserver.New(r.local, httpserver.WithSessions(r.spec.sessions)))
	for i := range r.spec.clients {
		tr := &http.Transport{MaxConnsPerHost: 2 / r.spec.clients, MaxIdleConnsPerHost: 2, DisableCompression: true}
		r.trs = append(r.trs, tr)
		for _, st := range r.present() {
			var rt http.RoundTripper = tr
			if st.traced {
				rt = &spanTransport{inner: tr, rec: r.rec}
			}
			c, err := httpclient.DialRetry(ctx, lb.url, fmt.Sprintf("crawler-%d", i), &http.Client{Transport: rt}, httpclient.RetryPolicy{})
			if err != nil {
				return err
			}
			st.clients = append(st.clients, &callTimer{inner: c, layer: lClient, rec: r.recOf(st)})
		}
	}
	r.stats = &http.Client{Transport: r.trs[0]}
	return nil
}

// warmUp runs the reference crawl — in-process and sequential over the
// raw Local, captured in crawl order for the ladder — and, for the HTTP
// workloads, one untraced round through the workload's own stack.
func (r *rig) warmUp(ctx context.Context) error {
	ref := &callTimer{inner: r.local, capture: true}
	res, err := core.ForSchema(r.local.Schema()).Crawl(ctx, ref, nil)
	if err != nil {
		return fmt.Errorf("reference crawl: %w", err)
	}
	if fingerprintOf(res.Tuples) != r.spec.want {
		return errors.New("reference crawl: tuples differ from the hidden bag")
	}
	r.paid, r.journal = res.Queries, ref.journal
	if r.spec.http {
		if _, err := r.round(ctx, r.stacks[0]); err != nil {
			return fmt.Errorf("warm-up round: %w", err)
		}
	}
	return nil
}

func (r *rig) close() {
	if r.lb != nil {
		r.lb.close()
	}
	for _, tr := range r.trs {
		tr.CloseIdleConnections()
	}
	if r.spec.release != nil {
		r.spec.release()
	}
}

// roundResult is what one timed round measured.
type roundResult struct {
	wall, cpu time.Duration
	mallocs   uint64
	// paid is what the server charged, asks what the crawlers asked.
	paid, asks int
	lat        []time.Duration
	calls      int
	busy       time.Duration
	plan       index.PlanStats
	engine     index.EngineStats
	stats      wire.StatsMsg
	spans      []span
}

// round runs one timed round on st: every client runs its crawls against a
// fresh handler (a fresh session table), then the outputs and costs are
// verified against the reference crawl.
func (r *rig) round(ctx context.Context, st *stack) (roundResult, error) {
	if r.lb != nil {
		var h http.Handler = httpserver.New(st.server, httpserver.WithSessions(r.spec.sessions))
		if st.traced {
			h = &spanMiddleware{inner: h, rec: r.rec}
		}
		r.lb.swap(h)
	}
	plan0, eng0 := r.spec.engine.PlanStats(), r.spec.engine.EngineStats()
	results := make([][]*core.Result, len(st.clients))
	errs := make([]error, len(st.clients))
	crawl := func(ctx context.Context, i int) {
		for range r.spec.crawls {
			res, err := r.spec.crawler.Crawl(ctx, st.clients[i], nil)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = append(results[i], res)
		}
	}

	runtime.GC()
	var root uint64
	var mark int
	if st.traced {
		r.rounds++
		ctx, root, mark = r.rec.begin(ctx, r.rounds)
	}
	cpu0, m0, t0 := cpuTime(), mallocs(), time.Now()
	if len(st.clients) == 1 {
		crawl(ctx, 0)
	} else {
		var wg sync.WaitGroup
		for i := range st.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				crawl(ctx, i)
			}()
		}
		wg.Wait()
	}
	t1 := time.Now()
	out := roundResult{wall: t1.Sub(t0), mallocs: mallocs() - m0, cpu: cpuTime() - cpu0}
	if st.traced {
		r.rec.finish(root, t0, t1)
		out.spans = r.rec.since(mark)
	}

	for _, c := range st.clients {
		lat, queries, busy := c.take()
		out.lat = append(out.lat, lat...)
		out.calls += len(lat)
		out.asks += queries
		out.busy += busy
	}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	for _, rs := range results {
		for _, res := range rs {
			if res.Queries != r.paid {
				return out, fmt.Errorf("a crawl asked %d queries, the reference paid %d", res.Queries, r.paid)
			}
			if fingerprintOf(res.Tuples) != r.spec.want {
				return out, errors.New("a crawl's tuples differ from the hidden bag")
			}
		}
	}
	out.paid = out.asks
	if r.lb != nil {
		var err error
		if out.stats, err = r.getStats(ctx); err != nil {
			return out, err
		}
		out.paid = out.stats.Queries
	}
	if out.paid != r.paid {
		return out, fmt.Errorf("the round paid %d queries, the reference paid %d", out.paid, r.paid)
	}
	out.plan = planDelta(r.spec.engine.PlanStats(), plan0)
	eng := r.spec.engine.EngineStats()
	out.engine = index.EngineStats{Kind: eng.Kind, CacheHits: eng.CacheHits - eng0.CacheHits, CacheMisses: eng.CacheMisses - eng0.CacheMisses}
	return out, nil
}

func (r *rig) getStats(ctx context.Context) (wire.StatsMsg, error) {
	var msg wire.StatsMsg
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.lb.url+"/stats", nil)
	if err != nil {
		return msg, err
	}
	resp, err := r.stats.Do(req)
	if err != nil {
		return msg, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return msg, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&msg); err != nil {
		return msg, fmt.Errorf("decoding /stats: %w", err)
	}
	return msg, nil
}

func planDelta(now, before index.PlanStats) index.PlanStats {
	d := index.PlanStats{Hits: now.Hits - before.Hits, Misses: now.Misses - before.Misses, Paths: map[string]int64{}}
	for k, v := range now.Paths {
		d.Paths[k] = v - before.Paths[k]
	}
	return d
}

// loopback serves whichever handler is current on a 127.0.0.1 listener,
// so each round can start from a fresh handler behind one address.
type loopback struct {
	url  string
	srv  *http.Server
	h    atomic.Pointer[http.Handler]
	done chan struct{}
}

func listen() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	lb.srv = &http.Server{Handler: lb}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return lb, nil
}

func (lb *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*lb.h.Load()).ServeHTTP(w, r)
}

func (lb *loopback) swap(h http.Handler) { lb.h.Store(&h) }

func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}
