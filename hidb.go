// Package hidb is a library for crawling hidden web databases — datasets
// reachable only through a form-based search interface that returns at most
// k tuples per query plus an overflow signal. It implements the provably
// optimal algorithms of Sheng, Zhang, Tao and Jin, "Optimal Algorithms for
// Crawling a Hidden Database in the Web" (PVLDB 5(11), 2012):
//
//   - rank-shrink for numeric search forms — O(d·n/k) queries;
//   - slice-cover / lazy-slice-cover for categorical forms;
//   - hybrid for mixed forms;
//
// together with the paper's baselines (binary-shrink, DFS), a conforming
// hidden-database server simulator, an HTTP server/client pair for crawling
// over the wire, synthetic workload generators, and the full experiment
// harness reproducing the paper's evaluation.
//
// # Quick start
//
//	schema := hidb.MustSchema([]hidb.Attribute{
//		{Name: "Make", Kind: hidb.Categorical, DomainSize: 85},
//		{Name: "Price", Kind: hidb.Numeric, Min: 200, Max: 250000},
//	})
//	srv, _ := hidb.NewLocalServer(schema, tuples, 1000, 42)
//	res, err := hidb.Crawl(ctx, srv, nil) // picks the paper's optimal algorithm
//	// res.Tuples is the complete database; res.Queries the cost.
//
// Every entry point takes a context.Context first: cancel it and the crawl
// stops between queries (a journaled crawl resumes later, paying only for
// what never ran), give it a deadline and every remote round trip is
// bounded. Callers that do not need cancellation pass context.Background().
//
// For incremental consumption, CrawlSeq streams the same extraction as a
// Go iterator instead of buffering the bag:
//
//	for t, err := range hidb.CrawlSeq(ctx, srv, nil) {
//		if err != nil {
//			var pe *hidb.PartialCrawlError // carries the cost already paid
//			// errors.As(err, &pe); resume later via a journal.
//			break
//		}
//		consume(t) // tuples arrive in extraction order; break cancels
//	}
//
// To crawl a remote hidden database, expose it with NewHTTPHandler on the
// serving side and DialHTTP on the crawling side; every algorithm runs
// unmodified against the remote connection. The handler serves every
// request through the caller's session, keyed by its API token
// (DialHTTPToken), with a private quota and journal; tokenless clients
// share the anonymous session. RemoteClient.CrawlSeq is the wire form of
// CrawlSeq — the server runs the algorithm and streams the
// tuples — with a resume cursor for reconnecting after a broken stream.
//
// # Batched serving
//
// A Server answers through one entry point, AnswerBatch, with one
// invariant: a batch is answered exactly as if its queries were issued
// one at a time, so the query count — the paper's cost metric — never
// depends on how queries are packed, while B batched queries cost a single
// round trip (one POST /batch over HTTP, one delay under a latency model,
// one fan-out over a sharded store). Answer(ctx, q) is a one-query batch.
// Cancellation obeys the same invariant from the other side: a cancelled
// batch ends at an answered prefix, and a query cut off by ctx was never
// served, never charged. ParallelCrawler drains its ready queries into
// such batches automatically, and pipelines them: up to its InFlight
// round trips (default 2, the double buffer; hidb-crawl's -inflight
// flag) fly at once, the next batch departing the moment a flight slot
// frees, so a high-latency connection never idles between round trips. A custom wrapper implements Server directly, its
// Answer a one-query AnswerBatch; for a per-IP budget, NewQuotaServer
// already keeps the batch and cancellation contracts. For serving many
// concurrent crawls from one process, NewShardedLocalServer partitions the
// store into priority-range shards that answer batches in parallel, each
// with its own scratch memory.
//
// # The engine
//
// Behind every local server sits a read-only columnar store with four access
// paths: a chunked full scan with early exit, sorted per-value posting lists
// (the shortest one walked, each candidate checked with one column load),
// binary-search rank ranges for numeric predicates, and — for low-cardinality categorical
// attributes — compressed per-value bitmap indexes over the priority ranks,
// so a multi-attribute equality conjunction is answered by a word-parallel
// AND instead of a posting-list walk. The planner chooses among them with a
// cost model fed by exact candidate counts and by selectivities measured on
// a sample of the actual data at construction (not assumed from domain
// sizes). It plans every query from its own constants: a crawl narrows the
// same query shape again and again, and each narrower query deserves its
// own, usually tighter, path. Planning allocates nothing. All paths return
// bit-identical answers; planning changes speed, never responses, so the
// paper's query counts are untouched. LocalServer.PlanStats counts how often
// each access path executed, and the HTTP server reports the counts on
// GET /stats.
//
// # On-disk stores
//
// The same engine contract has a second, disk-resident implementation for
// datasets larger than RAM. BuildDisk streams tuples in rank order — an
// iterator, never a materialized bag — into an immutable columnar store
// file: per-attribute column segments, per-band posting-list and
// sorted-projection indexes, and a checksummed footer carrying the schema
// and the planner's selectivity sample. OpenDisk maps the file read-only
// and serves Select straight off the mapped pages, copying only each
// answer's rows onto the heap, so serving a 10M-tuple store costs
// megabytes of heap, not gigabytes. NewDiskLocalServer wraps the opened
// store as a LocalServer; everything stacked on a local server — sessions,
// journals, the shared cache, the HTTP handler — runs unchanged on top.
//
//	_ = hidb.BuildDisk(path, schema, rows, hidb.DiskBuildOptions{Bands: 8})
//	store, _ := hidb.OpenDisk(path)
//	defer store.Close()
//	srv, _ := hidb.NewDiskLocalServer(store, 1000)
//
// Responses are bit-identical to the in-memory engine's: the store is laid
// out in the same priority order (build from RankOrder(tuples, seed) to
// match NewLocalServer's permutation), the persisted sample reproduces the
// in-memory planner's selectivity estimates exactly, and the opened store
// is the sharded in-memory engine's own partitioned store with one shard
// per band — so plans, answers and the paper's query counts are all
// unchanged by the engine swap.
//
// Builds are crash-safe the same way journals are (write temp, fsync,
// rename): a crash mid-build leaves no partial file at the target path.
// Opening validates the footer's checksum and structure; a torn or
// bit-flipped file is quarantined as path+".corrupt" and reported as a
// *DiskCorruptionError. The store's Verify method additionally
// re-checksums every data segment — worth paying at startup for
// long-lived servers. Pick the disk engine when the dataset
// dwarfs RAM or a prebuilt store should outlive the process; pick the
// in-memory engine for anything that fits — steady-state it is faster by
// a small constant factor, with no build step.
//
// # Simulation and fault injection
//
// Every timed layer tells time through one Clock: real time, or a
// virtual SimClock. Two deterministic test harnesses ship with the library.
// NewLatencyServer on a NewSimClock simulates per-round-trip network
// latency on virtual time: the clock advances only when the simulated
// crawl is quiescent, so a crawl's wall-clock behaviour under any latency
// is a reproducible measurement (clock.Now() after the crawl) that costs
// microseconds of real time — give ParallelCrawler the same clock in its
// Clock field. NewFlakyServer injects seeded transient errors,
// nth-query failures and ctx-abort windows in front of any Server, for
// testing that crawls resume correctly and budgets stay consistent under
// real-world failure.
//
// # Resilience
//
// The remote stack is built to survive hostile networks and server
// restarts without ever distorting the paper's cost metric. DialHTTPRetry
// arms the client with a RetryPolicy: transient failures — 5xx answers,
// refused or reset connections, lost responses, per-attempt timeouts — are
// retried with capped exponential backoff and seeded jitter, honouring the
// server's Retry-After; protocol answers (a quota rejection, a malformed
// query) are never retried. A severed /crawl stream resumes automatically
// from the tuple after the last one delivered, so reconnects neither
// duplicate nor lose tuples. None of this double-charges the client: the
// server journals every paid answer per session, so a retried query or a
// resumed crawl replays the journaled prefix for free, and the paid query
// count comes out identical to a fault-free run. When retries are
// exhausted (or a retry budget runs dry) the failure surfaces as a
// *TransportError. On the serving side the handler sheds overload rather
// than degrading — 503 + Retry-After beyond a concurrency bound, new
// tokens turned away when the session table is full — and Drain plus a
// not-ready /healthz give restarts a clean exit: in-flight work finishes,
// journals persist, and a reconnecting client resumes where it left off.
// Session journals persist crash-safely (write-temp-then-rename, per-record
// checksums); a file torn by a crash mid-persist recovers its longest valid
// prefix, so at most the unflushed tail is ever re-paid.
//
// # Fleet mode
//
// The paper's cost model is per-client, so M clients crawling the same
// hidden store pay M times for identical knowledge. Fleet mode —
// SessionConfig.SharedCache, or hidb-server's -shared-cache flag — adds
// one shared answer tier under every session's private stack: the first
// token to issue a query leads (pays through its own quota and counter,
// populates the tier) while concurrent askers of the same query block on
// the in-flight fetch and read the leader's answer without re-issuing it.
// Because the single-flight is per query, a follower crawling alongside a
// leader streams the still-growing extraction incrementally — it waits at
// most one query's latency at a time, never for the whole crawl.
//
// What a shared answer costs the asker is the policy: under
// SharedCacheFree, hits and waits bypass the asker's quota and counter
// entirely — M crawlers of one store at ~1x total paid cost; under
// SharedCacheCharged, the tier sits below the counter, so a hit saves the
// store's work but is still counted and debited, preserving the paper's
// per-client accounting. The default SharedCacheOff builds exactly the
// per-session stack documented above — paper-mode costs, bit for bit.
//
// Resume behaviour is unchanged in every mode: each session's journal
// records the answers that session saw (however they were obtained), so a
// follower that disconnects replays its own journal for free and re-reads
// anything else from the shared tier. Failure is safe by construction — a
// leader whose crawl is cancelled, whose budget runs dry, or whose session
// is evicted mid-fetch hands leadership to a waiting follower (which pays
// on its own budget) instead of orphaning it, and eviction never discards
// the tier: answers any token led keep serving the fleet.
//
// # Observability & load
//
// The HTTP server self-reports on three admission-free endpoints — they
// answer even while the handler drains or sheds, because a saturated
// server is exactly the one worth watching. GET /stats is the JSON
// snapshot (totals, per-session counters, engine and planner internals);
// GET /metrics is the same state in the Prometheus text exposition —
// hidb_requests_total, hidb_queries_total, hidb_shed_total by reason
// (capacity, draining, session_table_full), hidb_quota_rejected_total,
// the hidb_batch_width histogram, per-rate-class session gauges and the
// plan-path/engine counters — ready for any Prometheus-compatible
// scraper with no client library involved. GET /healthz distinguishes
// liveness from readiness: a draining handler answers 503 with
// ready=false so load balancers rotate it out while in-flight work
// finishes.
//
// QoS knobs shape who gets served when, never what anything costs:
// hidb-server's repeatable -rate-class flag (-rate-class gold=50:100
// -rate-class free=2) names per-token qps tiers resolved from the token's
// prefix before the first '-', falling back to the flat -rate-per-second;
// sheds carry Retry-After hints sized to the cause (1s for transient
// capacity, 30s for a one-way drain). The paid query count — the paper's
// cost metric — is identical with every knob on or off.
//
// Command hidb-loadgen drives mixed virtual-session traffic (form
// queries, batches, crawls with mid-stream aborts and resumes, unseen
// tokens against a full table) at the server and emits a benchjson-shaped
// latency/shed/quota artifact. Its sim mode runs under the virtual clock:
// thousands of sessions in milliseconds of real time, every percentile
// and shed count bit-reproducible from the seed, so two artifacts diff
// meaningfully.
package hidb

import (
	"context"
	"io"
	"iter"
	"net/http"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/diskstore"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/httpserver"
	"hidb/internal/index"
	"hidb/internal/journal"
	"hidb/internal/parallel"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// Core data-space types. See the dataspace package for full documentation.
type (
	// Schema is an ordered list of attributes defining a data space.
	Schema = dataspace.Schema
	// Attribute describes one dimension of the data space.
	Attribute = dataspace.Attribute
	// Kind distinguishes numeric from categorical attributes.
	Kind = dataspace.Kind
	// Tuple is one row of the hidden database.
	Tuple = dataspace.Tuple
	// Bag is a multiset of tuples.
	Bag = dataspace.Bag
	// Query is a form query: one predicate per attribute.
	Query = dataspace.Query
	// Pred is a single-attribute predicate.
	Pred = dataspace.Pred
)

// Attribute kinds.
const (
	// Numeric attributes accept range predicates.
	Numeric = dataspace.Numeric
	// Categorical attributes accept equality-or-wildcard predicates.
	Categorical = dataspace.Categorical
)

// Server-side types. See the hiddendb package.
type (
	// Server is the query interface of a hidden database: batches via
	// AnswerBatch(ctx, qs) (a batch is answered as if issued sequentially;
	// a cancelled ctx ends it at an answered prefix), and single queries
	// via Answer(ctx, q), which is a one-query batch.
	Server = hiddendb.Server
	// QueryResult is a server's response to one query.
	QueryResult = hiddendb.Result
	// LocalServer is an in-process hidden database.
	LocalServer = hiddendb.Local
	// PlannerStats is a local store's query-planner introspection: how
	// often each access path executed (see LocalServer.PlanStats and the
	// package doc's engine section).
	PlannerStats = index.PlanStats
)

// NewQuotaServer wraps srv with a query budget, modelling the per-IP
// limits of real sites: once budget queries have been served, every
// further query fails with ErrQuotaExceeded. A batch that would overrun
// the budget is answered up to it and then reports ErrQuotaExceeded, as a
// sequential caller would see; a query cancelled before it was served is
// refunded.
func NewQuotaServer(srv Server, budget int) Server { return hiddendb.NewQuota(srv, budget) }

// NewRateLimitedServer wraps srv with a token-bucket rate limit: at most
// perSecond queries per second sustained, bursts of up to burst after idle
// periods (values below 1 are raised to 1). Waiting respects the query's
// ctx, so throttled crawls cancel promptly. Rate limiting delays queries;
// it never changes their responses or count.
func NewRateLimitedServer(srv Server, perSecond float64, burst int) (Server, error) {
	return hiddendb.NewRateLimited(srv, perSecond, burst, hiddendb.Wall)
}

// Crawler-side types. See the core package.
type (
	// Crawler is a complete-extraction algorithm.
	Crawler = core.Crawler
	// CrawlResult is the outcome of a crawl: the full bag plus the cost,
	// or, returned with a crawl's error, the partial bag and the queries
	// paid before it stopped.
	CrawlResult = core.Result
	// CrawlOptions holds the three callbacks every crawler honours:
	// OnProgress (the per-query progressiveness points), OnTuples (the
	// output, chunk by chunk, in order) and QueryFilter (§1.3's
	// dependency filter). Each is called one call at a time.
	CrawlOptions = core.Options
	// CurvePoint is one sample of the progressiveness curve.
	CurvePoint = core.CurvePoint
)

// Dataset bundles a schema with a bag of tuples (see datagen).
type Dataset = datagen.Dataset

// Errors.
var (
	// ErrUnsolvable reports that some point holds more than k duplicate
	// tuples, making complete extraction impossible (§1.1 of the paper).
	ErrUnsolvable = core.ErrUnsolvable
	// ErrWrongSpace reports an algorithm applied to an unsupported space.
	ErrWrongSpace = core.ErrWrongSpace
	// ErrQuotaExceeded reports an exhausted server query budget.
	ErrQuotaExceeded = hiddendb.ErrQuotaExceeded
)

// NewSchema validates the attribute list and returns a schema. Categorical
// attributes must precede numeric ones, matching the paper's convention.
func NewSchema(attrs []Attribute) (*Schema, error) { return dataspace.NewSchema(attrs) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs []Attribute) *Schema { return dataspace.MustSchema(attrs) }

// UniverseQuery returns the query covering the whole data space.
func UniverseQuery(s *Schema) Query { return dataspace.UniverseQuery(s) }

// NewQuery builds a query from explicit predicates.
func NewQuery(s *Schema, preds []Pred) (Query, error) { return dataspace.NewQuery(s, preds) }

// NewLocalServer builds an in-process hidden database over the bag with
// return limit k. The seed fixes the tuple-priority permutation, so equal
// seeds give bit-identical servers.
func NewLocalServer(schema *Schema, tuples Bag, k int, seed uint64) (*LocalServer, error) {
	return hiddendb.NewLocal(schema, tuples, k, seed)
}

// NewShardedLocalServer builds an in-process hidden database whose store is
// partitioned into the given number of priority-range shards. Responses are
// bit-identical to NewLocalServer with the same (tuples, k, seed) —
// sharding changes only how batches execute: AnswerBatch fans out across
// the shards in parallel, each shard with its own scratch memory, so one
// process can serve many concurrent crawls without contention.
func NewShardedLocalServer(schema *Schema, tuples Bag, k int, seed uint64, shards int) (*LocalServer, error) {
	return hiddendb.NewLocalSharded(schema, tuples, k, seed, shards)
}

// NewCrawler returns the algorithm with the given paper name: one of
// "binary-shrink", "rank-shrink", "dfs", "slice-cover", "lazy-slice-cover"
// or "hybrid".
func NewCrawler(name string) (Crawler, error) { return core.ByName(name) }

// CrawlerNames lists the available algorithm names.
func CrawlerNames() []string { return core.Names() }

// BestCrawler returns the paper's recommended algorithm for the schema:
// rank-shrink (numeric), lazy-slice-cover (categorical) or hybrid (mixed).
func BestCrawler(s *Schema) Crawler { return core.ForSchema(s) }

// Crawl extracts the entire hidden database behind srv using the paper's
// recommended algorithm for the server's schema. Cancelling ctx stops the
// crawl between queries with the ctx's error; with a live ctx the query
// count is exactly the algorithm's. A failed crawl returns its error with
// the partial CrawlResult, whose Queries is the cost already paid.
func Crawl(ctx context.Context, srv Server, opts *CrawlOptions) (*CrawlResult, error) {
	return core.ForSchema(srv.Schema()).Crawl(ctx, srv, opts)
}

// PartialCrawlError is the terminal error of a CrawlSeq stream: the
// underlying failure (inspect with errors.Is/As — e.g. ErrQuotaExceeded or
// the ctx's cancellation error) plus Queries, the cost already paid when
// the crawl stopped. The tuples yielded before it are a valid prefix of
// the extraction.
type PartialCrawlError = core.PartialError

// CrawlSeq is the streaming form of Crawl: it extracts the database with
// the paper's recommended algorithm and yields every tuple as it is
// retrieved, in exactly the order (and number) Crawl's Result.Tuples would
// hold. Breaking out of the range loop cancels the crawl and waits for it
// to wind down; a crawl that cannot finish yields one final (nil,
// *PartialCrawlError) pair, whose Queries is the partial CrawlResult's.
// Streaming is delivery, not a different algorithm: consuming the whole
// stream costs exactly Crawl's query count. It is built on
// CrawlOptions.OnTuples, whose chunks every crawler delivers in output
// order.
func CrawlSeq(ctx context.Context, srv Server, opts *CrawlOptions) iter.Seq2[Tuple, error] {
	return core.CrawlSeq(ctx, core.ForSchema(srv.Schema()), srv, opts)
}

// NewHTTPHandler exposes a Server over HTTP (GET /schema, POST /query,
// POST /batch — B queries for one round trip, answered as if sequential —
// and POST /crawl, a server-side crawl streamed as NDJSON). Every request
// resolves through the caller's token-keyed session (Authorization:
// Bearer; tokenless callers share the anonymous session), so quotas,
// journals and query counters are per-client, and GET /stats reports
// them. cfg tunes the sessions; its zero value is unlimited budgets, no
// expiry and 1024 live sessions.
func NewHTTPHandler(srv Server, cfg SessionConfig) http.Handler {
	return httpserver.New(srv, httpserver.WithSessions(cfg))
}

// SessionConfig tunes per-client HTTP sessions: each API token's query
// budget, its sustained queries-per-second rate limit, the TTL of the
// budget window, the live-session cap, the directory journals persist
// to across evictions, and the fleet-wide shared answer cache (see the
// session package and the package doc's fleet-mode section).
type SessionConfig = session.Config

// SharedCachePolicy selects whether and how a session table's fleet-wide
// shared answer tier participates in each session's stack (see the
// package doc's fleet-mode section).
type SharedCachePolicy = hiddendb.SharedCachePolicy

// Shared-cache policies.
const (
	// SharedCacheOff is paper mode (the default): no shared tier, every
	// client pays its full query count, accounting bit-identical.
	SharedCacheOff = hiddendb.SharedOff
	// SharedCacheFree serves shared hits free of the asker's quota and
	// counter: only the leading token pays the store.
	SharedCacheFree = hiddendb.SharedFree
	// SharedCacheCharged serves shared hits from the cache but still
	// debits the asker, preserving the paper's per-client accounting.
	SharedCacheCharged = hiddendb.SharedCharged
)

// ParseSharedCachePolicy parses "off", "free" or "charged" — the
// spellings of hidb-server's -shared-cache flag.
func ParseSharedCachePolicy(s string) (SharedCachePolicy, error) {
	return hiddendb.ParseSharedCachePolicy(s)
}

// DialHTTP connects to a remote hidden database served by NewHTTPHandler
// and returns it as a Server every algorithm can crawl. The ctx bounds the
// initial schema fetch; every later round trip carries its own. A nil
// httpClient uses http.DefaultClient.
func DialHTTP(ctx context.Context, baseURL string, httpClient *http.Client) (Server, error) {
	return httpclient.Dial(ctx, baseURL, httpClient)
}

// RemoteClient is the concrete HTTP client: a Server (Answer/AnswerBatch
// round trips under the caller's ctx) that can also consume the
// server-side streaming /crawl endpoint via its Crawl and CrawlSeq
// methods, including the resume cursor for reconnecting mid-extraction.
type RemoteClient = httpclient.Client

// RemoteCrawlEvent is one NDJSON line of the /crawl progress stream.
type RemoteCrawlEvent = wire.CrawlEvent

// RemoteCrawlResult is the outcome of a server-side streaming crawl.
type RemoteCrawlResult = httpclient.CrawlResult

// DialHTTPToken connects like DialHTTP but identifies the client with an
// API token (sent as "Authorization: Bearer" on every request): the
// server's quota, journal and query counters are then private to this
// client. The concrete client is returned so its Crawl and
// CrawlSeq methods — the streaming server-side crawl — are reachable.
func DialHTTPToken(ctx context.Context, baseURL, token string, httpClient *http.Client) (*RemoteClient, error) {
	return httpclient.DialToken(ctx, baseURL, token, httpClient)
}

// RetryPolicy tunes the fault-tolerant transport of DialHTTPRetry: attempt
// cap, backoff shape, seeded jitter, per-attempt timeout, and an optional
// cross-call retry budget that brakes retry storms. The zero value gives
// sensible defaults. Its Clock times the backoff sleeps: nil is real
// time, a SimClock is virtual time, and a nil *SimClock disables backoff
// (its Sleep returns at once) rather than selecting real time.
type RetryPolicy = httpclient.RetryPolicy

// TransportError reports a remote operation that failed even after the
// policy's retries (or whose retry budget ran dry). Unwrap yields the last
// attempt's error.
type TransportError = httpclient.TransportError

// DialHTTPRetry connects like DialHTTPToken and arms the client with a
// retrying transport: transient failures (5xx answers, transport errors,
// per-attempt timeouts) back off and retry under policy, severed /crawl
// streams resume from the tuple after the last one delivered, and — as the
// server journals every paid answer per session — none of it
// double-charges: replays are free, so the paid query count matches a
// fault-free run. Protocol answers (quota exceeded, bad request) are never
// retried. Failures that outlive the policy surface as *TransportError.
func DialHTTPRetry(ctx context.Context, baseURL, token string, httpClient *http.Client, policy RetryPolicy) (*RemoteClient, error) {
	return httpclient.DialRetry(ctx, baseURL, token, httpClient, policy)
}

// ParallelCrawler is a crawler that drains ready queries into AnswerBatch
// round trips of up to Workers queries each and keeps up to InFlight
// round trips (default 2; 1 = flush-on-completion) in flight at once:
// while round trips fly, the next batch accumulates and departs the
// moment a flight slot frees, so the connection never idles between round
// trips. These two numbers, batch width and pipeline depth, are the
// pipeline's only settings; Clock runs it on a SimClock. The set of
// issued queries — and therefore the paper's cost metric — is identical
// to the sequential algorithms'; only wall-clock time and the round-trip
// count change. Use it when each round trip has real network cost. It
// calls CrawlOptions' callbacks as the sequential crawlers do.
type ParallelCrawler = parallel.Crawler

// Deterministic simulation and fault injection. See the hiddendb package
// for the full documentation of each type.
type (
	// Clock is the time source of every timed layer: real time, or a
	// SimClock.
	Clock = hiddendb.Clock
	// SimClock is a deterministic virtual Clock for latency simulation:
	// round trips cost virtual time that advances only when the simulated
	// crawl is quiescent, so the same crawl always measures the same
	// elapsed time, in microseconds of real time. Use one clock per crawl.
	SimClock = hiddendb.SimClock
	// LatencyServer charges a fixed delay per round trip on a Clock: a
	// real network latency on a real-time Clock, its deterministic
	// counterpart on a SimClock.
	LatencyServer = hiddendb.Latency
	// FlakyServer injects deterministic, seeded faults (transient errors,
	// nth-query failures, ctx-abort windows) in front of a Server, for
	// testing crawl resumption and budget accounting under failure.
	FlakyServer = hiddendb.Flaky
	// FlakyServerConfig selects the faults a FlakyServer injects.
	FlakyServerConfig = hiddendb.FlakyConfig
)

// ErrInjectedFault is the transient error a FlakyServer injects.
var ErrInjectedFault = hiddendb.ErrInjected

// NewSimClock returns a virtual clock at time zero.
func NewSimClock() *SimClock { return hiddendb.NewSimClock() }

// NewLatencyServer wraps srv so every round trip — one AnswerBatch call,
// however wide — first waits delay on clock. On a SimClock a sequential
// crawl drives the clock by itself; for ParallelCrawler, set the same
// clock in its Clock field so the pipelined dispatcher can keep the
// clock's runnable-work accounting. After the crawl, clock.Now() is its
// deterministic virtual wall-clock time — how the parallel latency
// ablation measures pipeline speedups reproducibly without sleeping.
func NewLatencyServer(srv Server, delay time.Duration, clock Clock) *LatencyServer {
	return hiddendb.NewLatency(srv, delay, clock)
}

// NewFlakyServer wraps srv with deterministic fault injection per cfg.
// Faults follow the answered-prefix contract: a batch cut short by a fault
// still delivers (and pays for) the queries answered before it, so
// journals, quotas and counters stay consistent — which is exactly what
// the wrapper exists to let tests verify.
func NewFlakyServer(srv Server, cfg FlakyServerConfig) *FlakyServer {
	return hiddendb.NewFlaky(srv, cfg)
}

// Journal is a replayable log of server responses that makes crawls
// resumable across query quotas (see the journal package).
type Journal = journal.Journal

// NewJournal creates an empty journal for a server with the given schema
// and return limit.
func NewJournal(schema *Schema, k int) *Journal { return journal.New(schema, k) }

// ReadJournal deserializes a journal written with Journal.WriteTo. A torn
// or corrupted stream recovers its longest valid prefix: the journal is
// returned alongside a *JournalCorruptionError (errors.As) instead of
// being discarded — only the damaged tail's queries must be re-paid.
func ReadJournal(r io.Reader) (*Journal, error) { return journal.ReadFrom(r) }

// JournalCorruptionError reports a torn or corrupted journal. The journal
// returned with it holds the longest valid prefix and is safe to use.
type JournalCorruptionError = journal.CorruptionError

// SaveJournalFile persists a journal crash-safely: write to a temp file in
// the target directory, fsync, rename over the final path. A crash at any
// instant leaves either the old or the new complete journal, never a torn
// mix.
func SaveJournalFile(path string, j *Journal) error { return journal.SaveFile(path, j) }

// LoadJournalFile reads a journal persisted with SaveJournalFile. Damaged
// files are recovered to their longest valid prefix, the original
// quarantined as path+".corrupt", and the recovery reported via a
// *JournalCorruptionError alongside the (usable) journal. A missing file's
// error wraps fs.ErrNotExist.
func LoadJournalFile(path string) (*Journal, error) { return journal.LoadFile(path) }

// WithJournal wraps a server so that journaled queries are answered from
// the log at zero cost and new responses are recorded. Re-running a crawl
// with the same journal fast-forwards through everything already paid for —
// the way to finish a crawl across several per-IP query budgets.
func WithJournal(srv Server, j *Journal) (Server, error) { return journal.Wrap(srv, j) }

// On-disk store types. See the diskstore package and the package doc's
// on-disk section.
type (
	// DiskStore is an opened disk-resident columnar store: the sharded
	// engine, one shard per band, serving Select off mapped file pages.
	// Close it when done.
	DiskStore = diskstore.Store
	// DiskBuildOptions tunes BuildDisk (the priority-range band count).
	DiskBuildOptions = diskstore.BuildOptions
	// DiskCorruptionError reports a torn or bit-flipped store file; the
	// damaged file is quarantined as path+".corrupt".
	DiskCorruptionError = diskstore.CorruptionError
	// EngineStats identifies a server's engine ("mem" or "disk"). The
	// HTTP server reports it on GET /stats and in the /crawl terminal
	// event.
	EngineStats = index.EngineStats
)

// BuildDisk streams rows — which must arrive in descending priority order;
// tuple r of the iteration gets rank r — into a disk-resident columnar
// store at path. The write is crash-safe (temp file, fsync, rename); the
// iterator is consumed once; memory stays bounded regardless of the
// dataset's size. opts.Bands partitions the store into priority-range
// bands for parallel batch fan-out, like NewShardedLocalServer's shards.
func BuildDisk(path string, schema *Schema, rows iter.Seq[Tuple], opts DiskBuildOptions) error {
	return diskstore.Build(path, schema, rows, opts)
}

// OpenDisk maps a store built by BuildDisk and returns it ready to serve.
// A damaged file is quarantined as path+".corrupt" and reported as a
// *DiskCorruptionError; see the package doc's on-disk section.
func OpenDisk(path string) (*DiskStore, error) {
	return diskstore.Open(path, diskstore.OpenOptions{})
}

// RankOrder returns the bag in the tuple-priority order NewLocalServer
// gives it under the same seed. Feed the result to BuildDisk and the disk
// store answers bit-identically to NewLocalServer(schema, tuples, k, seed).
func RankOrder(tuples Bag, seed uint64) []Tuple { return hiddendb.RankOrder(tuples, seed) }

// NewDiskLocalServer wraps an opened disk store as a LocalServer with
// return limit k: the full server contract — Answer, AnswerBatch, quotas,
// sessions, journals, the HTTP stack — over the disk engine. The store's
// rank order is its tuple priority (fixed at build time), so no seed is
// taken here; LocalServer.EngineStats reports the "disk" engine kind.
func NewDiskLocalServer(store *DiskStore, k int) (*LocalServer, error) {
	return hiddendb.NewLocalEngine(store, k)
}

// Workload generators (see datagen for the fidelity discussion).
var (
	// YahooLike generates the Yahoo! Autos stand-in (69,768 tuples, mixed).
	YahooLike = datagen.YahooLike
	// NSFLike generates the NSF awards stand-in (47,816 tuples, categorical).
	NSFLike = datagen.NSFLike
	// AdultLike generates the census stand-in (45,222 tuples, mixed).
	AdultLike = datagen.AdultLike
	// AdultNumeric generates the numeric projection of AdultLike.
	AdultNumeric = datagen.AdultNumeric
	// HardNumeric builds the Theorem-3 adversarial numeric instance.
	HardNumeric = datagen.HardNumeric
	// HardCategorical builds the Theorem-4 adversarial categorical instance.
	HardCategorical = datagen.HardCategorical
)
