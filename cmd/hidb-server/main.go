// Command hidb-server serves a synthetic hidden database over HTTP,
// emulating a real site's form-based search interface: GET /schema describes
// the form, POST /query answers at most k tuples plus an overflow signal,
// and POST /batch answers B queries in one round trip — exactly as if they
// had been submitted to /query one by one, so the query cost is identical.
//
// Usage:
//
//	hidb-server -dataset yahoo -k 1000 -addr :8080
//	hidb-server -dataset yahoo -shards 8      # priority-range-sharded store
//	hidb-server -dataset adult -quota-per-client 20000 -session-ttl 24h \
//	    -journal-dir ./journals               # budgeted, resumable clients
//
// With -shards N the store is partitioned into N priority-rank ranges and a
// /batch request fans out across the shards in parallel (each shard with
// its own scratch memory) — the configuration for serving many concurrent
// batched crawls from one process. Responses are bit-identical to the
// unsharded store.
//
// -engine disk serves the dataset from a persistent columnar store file,
// <data-dir>/<dataset>.hidb, mapped read-only and queried straight off
// disk pages — the configuration for datasets larger than RAM. The file is
// built on first run (in the same priority permutation the in-memory
// engine uses, partitioned into -shards bands) and reused thereafter, so
// restarts skip dataset generation entirely. Responses and query counts
// are bit-identical to -engine mem; GET /stats reports the engine kind:
//
//	hidb-server -dataset yahoo -engine disk -data-dir ./data -shards 8
//
// Every request is served through the caller's session: each API token
// (Authorization: Bearer) gets its own quota (-quota-per-client),
// token-bucket rate limit (-rate-per-client queries/second sustained,
// throttled queries wait inside the request and cancel with it) and
// journal over the shared store, and tokenless clients share the
// anonymous session on the same terms. A query a session already paid
// for replays from its journal for free. GET /stats reports per-session
// and aggregate counters, and POST /crawl runs the optimal crawl
// server-side, streaming (tuple, paid-queries) progress as NDJSON.
// -session-ttl is the budget window (an idle session expires and the
// token's next request starts a fresh budget), and -journal-dir makes
// crawls resumable across windows: an evicted session's journal is
// persisted — also on shutdown — and reloaded when its token returns, so
// already-paid queries replay for free.
//
// -rate-class name=qps[:burst] (repeatable) names per-token QoS tiers: a
// token joins the class named by its prefix before the first '-'
// ("gold-alice" joins class "gold"), tokens with no listed class fall
// back to the flat -rate-per-client, and a class with qps 0 is an
// explicit unlimited tier. Classes shape timing only — budgets,
// journals and the paper's query counts are untouched:
//
//	hidb-server -dataset adult -rate-class gold=50:100 -rate-class free=2
//
// GET /metrics exposes the QoS counters (quota 429s, shed 503s by reason,
// the /batch width histogram, in-flight depth, live sessions by rate
// class) plus the engine, shared-cache and plan-path counters in the
// Prometheus text format; GET /stats reports the same introspection as
// JSON. Both stay served while draining.
//
// -shared-cache free|charged adds the fleet-wide shared answer tier under
// every session's stack: the first token to issue a query pays for it and
// the answer serves the whole fleet, with concurrent askers blocking on
// the in-flight fetch instead of re-issuing it. Under free a shared hit costs the asker nothing (M crawlers of one
// store at ~1x total cost); under charged it saves the store's work but is
// still debited, preserving the paper's per-client accounting.
// -shared-cache-bytes bounds the tier's memory with LRU eviction. The
// default, off, is paper mode: bit-identical per-client costs.
//
// -max-inflight N sheds query-carrying requests beyond N concurrent with
// 503 + Retry-After instead of queueing them, and makes a full session
// table turn new tokens away rather than evict an established client's
// session. GET /healthz reports readiness as JSON; on SIGINT/SIGTERM the
// server drains — new requests shed, /healthz goes not-ready, in-flight
// work finishes within -drain-timeout — and persists every session journal
// before exiting, so reconnecting crawlers resume for free.
//
// Crawl it with `hidb-crawl -url http://localhost:8080` (add -workers N to
// crawl with batches of up to N queries per round trip; add -retries to
// ride out transient failures).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hidb"
	"hidb/internal/datagen"
	"hidb/internal/httpserver"
	"hidb/internal/session"
	"hidb/internal/tableload"
)

// rateClassFlag collects repeated -rate-class values, each a named
// qps tier in the form name=qps[:burst].
type rateClassFlag []session.RateClass

func (f *rateClassFlag) String() string {
	parts := make([]string, len(*f))
	for i, c := range *f {
		parts[i] = fmt.Sprintf("%s=%g:%d", c.Name, c.PerSecond, c.Burst)
	}
	return strings.Join(parts, ",")
}

func (f *rateClassFlag) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=qps[:burst], got %q", s)
	}
	qpsPart, burstPart, hasBurst := strings.Cut(spec, ":")
	qps, err := strconv.ParseFloat(qpsPart, 64)
	if err != nil {
		return fmt.Errorf("rate %q: %v", qpsPart, err)
	}
	burst := 0
	if hasBurst {
		if burst, err = strconv.Atoi(burstPart); err != nil {
			return fmt.Errorf("burst %q: %v", burstPart, err)
		}
	}
	*f = append(*f, session.RateClass{Name: name, PerSecond: qps, Burst: burst})
	return nil
}

// loadFile serves a user-supplied CSV/TSV file as the hidden database.
func loadFile(path string) (*datagen.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	loaded, err := tableload.Read(f, tableload.Options{
		Name: filepath.Base(path),
	})
	if err != nil {
		return nil, err
	}
	return loaded.Dataset, nil
}

// openDiskServer serves the dataset from a disk-resident store under dir:
// <dir>/<name>.hidb, built on first run from the dataset in the same
// priority permutation the in-memory engine would use, so responses — and
// the paper's query counts — are bit-identical across -engine values. The
// band count is fixed at build time; a rebuilt store (delete the file)
// picks up a changed -shards.
func openDiskServer(dir string, ds *datagen.Dataset, k int, prioritySeed uint64, shards int) (*hidb.LocalServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, ds.Name+".hidb")
	store, err := hidb.OpenDisk(path)
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("building disk store %s (n=%d, bands=%d)", path, ds.N(), shards)
		byRank := hidb.RankOrder(ds.Tuples, prioritySeed)
		if err := hidb.BuildDisk(path, ds.Schema, slices.Values(byRank), hidb.DiskBuildOptions{Bands: shards}); err != nil {
			return nil, err
		}
		store, err = hidb.OpenDisk(path)
	}
	if err != nil {
		var ce *hidb.DiskCorruptionError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("%w (quarantined as %s.corrupt; restart to rebuild)", ce, path)
		}
		return nil, err
	}
	return hidb.NewDiskLocalServer(store, k)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hidb-server: ")

	dataset := flag.String("dataset", "yahoo", "dataset to serve: yahoo, nsf, adult, adult-numeric")
	file := flag.String("file", "", "serve a CSV/TSV file (header row required; overrides -dataset)")
	k := flag.Int("k", 1000, "server return limit (tuples per query)")
	n := flag.Int("n", 0, "override dataset cardinality (0 = paper size)")
	seed := flag.Uint64("seed", 11, "dataset generator seed")
	prioritySeed := flag.Uint64("priority-seed", 42, "tuple priority permutation seed")
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 1, "priority-range shards of the store (>1 answers /batch with a parallel fan-out)")
	engine := flag.String("engine", "mem", "store engine: mem (in-memory columnar store) or disk (persistent columnar store under -data-dir, built on first run; responses bit-identical)")
	dataDir := flag.String("data-dir", "", "directory holding disk-engine store files (required with -engine disk)")
	quotaPerClient := flag.Int("quota-per-client", 0, "per-token query budget per session window, tokenless clients included (0 = unlimited)")
	ratePerClient := flag.Float64("rate-per-client", 0, "per-token sustained queries/second, token-bucket throttled (0 = unthrottled)")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst for -rate-per-client (0 = ceil of the rate)")
	var rateClasses rateClassFlag
	flag.Var(&rateClasses, "rate-class", "named qps tier, name=qps[:burst], repeatable (e.g. -rate-class gold=50:100 -rate-class free=2); a token's class is its prefix before the first '-', unlisted prefixes fall back to -rate-per-client")
	sessionTTL := flag.Duration("session-ttl", 0, "idle session expiry — the budget window (0 = never)")
	journalDir := flag.String("journal-dir", "", "persist each session's journal here on eviction/shutdown, reload on reconnect")
	maxSessions := flag.Int("max-sessions", 0, "live session cap, LRU-evicted beyond it (0 = default)")
	sharedCache := flag.String("shared-cache", "off", "fleet-wide shared answer cache: off (paper mode), free (a hit another token paid for costs the asker nothing), or charged (a hit saves the store's work but is still debited)")
	sharedCacheBytes := flag.Int64("shared-cache-bytes", 0, "bound the shared cache's resident size, LRU-evicted beyond it (0 = unbounded)")
	maxInFlight := flag.Int("max-inflight", 0, "shed query-carrying requests beyond this concurrency with 503 + Retry-After (0 = unbounded; any value enables shedding: a full session table turns new tokens away instead of evicting)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGINT/SIGTERM shutdown waits for in-flight requests to finish")
	flag.Parse()

	sharedPolicy, err := hidb.ParseSharedCachePolicy(*sharedCache)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	var ds *datagen.Dataset
	if *file != "" {
		ds, err = loadFile(*file)
	} else {
		ds, err = datagen.ByName(*dataset, *n, *seed)
	}
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	var srv *hidb.LocalServer
	switch *engine {
	case "mem":
		if *shards > 1 {
			srv, err = hidb.NewShardedLocalServer(ds.Schema, ds.Tuples, *k, *prioritySeed, *shards)
		} else {
			srv, err = hidb.NewLocalServer(ds.Schema, ds.Tuples, *k, *prioritySeed)
		}
	case "disk":
		if *dataDir == "" {
			log.Print("-engine disk requires -data-dir")
			os.Exit(2)
		}
		srv, err = openDiskServer(*dataDir, ds, *k, *prioritySeed, *shards)
	default:
		log.Printf("unknown -engine %q (want mem or disk)", *engine)
		os.Exit(2)
	}
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	opts := []httpserver.Option{httpserver.WithSessions(session.Config{
		Quota:            *quotaPerClient,
		RatePerSecond:    *ratePerClient,
		RateBurst:        *rateBurst,
		RateClasses:      rateClasses,
		TTL:              *sessionTTL,
		MaxSessions:      *maxSessions,
		JournalDir:       *journalDir,
		SharedCache:      sharedPolicy,
		SharedCacheBytes: *sharedCacheBytes,
	})}
	if *maxInFlight > 0 {
		opts = append(opts, httpserver.WithShedding(*maxInFlight))
	}
	handler := httpserver.New(srv, opts...)

	log.Printf("serving %s (n=%d, k=%d, max duplicates=%d, engine=%s, shards=%d) on %s",
		ds.Name, ds.N(), *k, ds.Tuples.MaxMultiplicity(), srv.EngineStats().Kind, srv.Shards(), *addr)
	// A clean shutdown persists live sessions' journals, so resumable
	// crawls survive a server restart, not just an eviction. The signal
	// ctx is also every request's base context: on SIGINT/SIGTERM the
	// in-flight crawls and batches cancel at their next query boundary
	// (their paid prefixes are journaled), so Shutdown drains promptly
	// instead of waiting out a long-running /crawl stream.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Print(err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		log.Print("draining, then shutting down")
		// Flip the handler into drain mode first: new query-carrying
		// requests are shed with 503 + Retry-After and /healthz goes
		// not-ready, so load balancers stop routing here while the
		// in-flight work finishes inside the drain budget.
		handler.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
		if err := handler.Sessions().Close(); err != nil {
			log.Printf("persisting session journals: %v", err)
			os.Exit(1)
		}
	}
}
