// Package loadgen drives synthetic token-session traffic against the HTTP
// hidden-database server — the load half of the observability layer. It
// spins up Config.Sessions virtual clients, each owning an API token and a
// deterministic RNG, and has every client walk a mixed op schedule: form
// queries (POST /query), batched queries (POST /batch), server-side crawls
// (POST /crawl) including deliberate mid-stream aborts with cursor-resumed
// reconnects, and requests under tokens the server has never seen (which a
// full session table must turn away). Between ops a client thinks for a
// randomized interval, so the request streams interleave like real
// traffic.
//
// The driver has two back ends with one schedule:
//
//   - RunSim serves the traffic in-process under a hiddendb.SimClock —
//     hiddendb.Latency on it supplies the round-trip delay, and the
//     session table tells time by it too — so thousands of sessions
//     run in milliseconds of real time and — because every virtual
//     deadline is unique by construction (see the residue scheme in
//     sim.go) — the whole run, shed 503s and quota 429s included, is
//     bit-reproducible from the seed.
//   - RunSocket sends the same schedule over a real TCP socket with real
//     sleeps, for throughput measurements of an actual server process.
//
// Either way the outcome is a Report whose Artifact serializes in the
// benchjson snapshot shape ({"benchmarks":[{name, iterations, metrics}]}),
// so the same tooling that diffs the paper's pinned query counts can diff
// load runs: p50/p95/p99/max latency, qps, shed and quota-rejection
// counts, and the paid query total. QoS knobs shape timing only — the
// paid_queries metric is as pinned as any other *_queries metric.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// Mix weighs the op schedule. Each virtual client draws its next op from
// these weights with its own RNG; a zero weight disables the op.
type Mix struct {
	// Query is one random form query via POST /query.
	Query int
	// Batch is Config.BatchWidth random queries via one POST /batch.
	Batch int
	// Crawl runs the server-side crawl to completion via POST /crawl,
	// resuming from the client's cursor when an earlier crawl aborted.
	Crawl int
	// Abort starts a /crawl, hangs up after a few NDJSON lines, then
	// reconnects with the resume cursor — the retry path of a flaky
	// client.
	Abort int
	// BadToken queries under a token the server has never seen; with the
	// session table full, a shedding server must refuse it.
	BadToken int
}

// DefaultMix exercises every endpoint with queries dominating, the shape
// of real crawler traffic.
func DefaultMix() Mix {
	return Mix{Query: 6, Batch: 2, Crawl: 1, Abort: 1, BadToken: 1}
}

func (m Mix) total() int {
	return m.Query + m.Batch + m.Crawl + m.Abort + m.BadToken
}

// Config parameterizes one load run. The zero value is completed by
// withDefaults; only Sessions and Ops are usually worth setting.
type Config struct {
	// Sessions is the number of virtual token sessions. Default 64.
	Sessions int
	// Ops is the number of schedule ops each session performs. Default 8.
	Ops int
	// Seed makes the whole schedule (and, under RunSim, the whole run)
	// reproducible. Default 1.
	Seed uint64
	// Dataset names the served workload, resolved by datagen.ByName
	// ("yahoo", "nsf", "adult", "adult-numeric"). Default "adult".
	Dataset string
	// N overrides the dataset cardinality; zero means 2000 (not the
	// paper's full size — load runs want a small hidden database).
	N int
	// K is the server's return limit; raised to the dataset's maximum
	// multiplicity so crawls stay solvable. Default 64.
	K int
	// BatchWidth is the /batch op's query count. Default 8.
	BatchWidth int
	// Latency is the per-round-trip delay RunSim charges on the virtual
	// clock (RunSocket measures real latency instead). Default 2ms.
	Latency time.Duration
	// Think bounds each client's randomized pause between ops, drawn
	// uniformly from [Think/2, Think). Default 10ms.
	Think time.Duration
	// Quota is each session's query budget (session.Config.Quota);
	// zero means unlimited.
	Quota int
	// MaxInFlight bounds concurrently served query-carrying requests
	// (httpserver.WithShedding); zero keeps requests unbounded while
	// still shedding unseen tokens off a full table. RunSocket against
	// an external URL ignores it (the remote server's own limits rule).
	MaxInFlight int
	// Algorithm is the /crawl algorithm name; empty lets the server
	// pick the paper's recommendation for the schema.
	Algorithm string
	// Mix weighs the op schedule; a zero Mix means DefaultMix.
	Mix Mix
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.Ops <= 0 {
		c.Ops = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Dataset == "" {
		c.Dataset = "adult"
	}
	if c.N <= 0 {
		c.N = 2000
	}
	if c.K <= 0 {
		c.K = 64
	}
	if c.BatchWidth <= 0 {
		c.BatchWidth = 8
	}
	if c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	if c.Think <= 0 {
		c.Think = 10 * time.Millisecond
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix()
	}
	return c
}

// Report is the outcome of one load run.
type Report struct {
	// Name identifies the run in the artifact:
	// loadgen/<dataset>/s<sessions>x<ops>.
	Name string
	// Ops counts schedule ops performed (sessions × per-session ops),
	// split by kind in the OpXxx fields below.
	Ops int
	// OpQuery..OpBadToken split Ops by schedule kind, so a run can prove
	// its mix exercised every endpoint. Not part of the artifact metrics.
	OpQuery, OpBatch, OpCrawl, OpAbort, OpBadToken int
	// Shed503 counts 503 responses (capacity, drain or table-full sheds).
	Shed503 int
	// Quota429 counts quota rejections: 429 responses plus /crawl streams
	// whose terminal line reported the session budget spent.
	Quota429 int
	// Aborted and Resumed count the Abort op's deliberate hang-ups and
	// the cursor-resumed reconnects that followed (Abort ops and Crawl
	// ops after an abort both resume).
	Aborted int
	Resumed int
	// Errors counts transport failures and unexpected HTTP statuses —
	// zero in a healthy run, and always zero under RunSim.
	Errors int
	// Tuples counts crawl tuples received over all /crawl streams.
	Tuples int
	// PaidQueries is the server's paid-query total over the whole run —
	// the paper's cost metric, read from the handler, warmup included.
	PaidQueries int
	// Elapsed is the run's wall clock: virtual under RunSim (hence
	// deterministic), real under RunSocket.
	Elapsed time.Duration
	// Latencies holds one sample per op that got a 2xx answer (sheds and
	// 429s are counted, not timed).
	Latencies []time.Duration
}

// metrics flattens the report into the artifact's metric map.
func (r *Report) metrics() map[string]float64 {
	sorted := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	elapsed := r.Elapsed
	qps := 0.0
	if elapsed > 0 {
		qps = float64(r.Ops) / elapsed.Seconds()
	}
	return map[string]float64{
		"p50_ms":       ms(percentile(sorted, 50)),
		"p95_ms":       ms(percentile(sorted, 95)),
		"p99_ms":       ms(percentile(sorted, 99)),
		"max_ms":       ms(percentile(sorted, 100)),
		"ops":          float64(r.Ops),
		"qps":          qps,
		"shed_503":     float64(r.Shed503),
		"quota_429":    float64(r.Quota429),
		"aborted":      float64(r.Aborted),
		"resumed":      float64(r.Resumed),
		"errors":       float64(r.Errors),
		"tuples":       float64(r.Tuples),
		"paid_queries": float64(r.PaidQueries),
		"elapsed_ms":   ms(elapsed),
	}
}

// percentile reads the p-th percentile (nearest-rank) from an ascending
// sample; an empty sample reads zero.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// artifactDoc mirrors scripts/benchjson's snapshot document.
type artifactDoc struct {
	Benchmarks []artifactBench `json:"benchmarks"`
}

type artifactBench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Artifact serializes the report in the benchjson snapshot shape. The
// encoding is canonical — json.Marshal orders map keys — so two runs with
// identical outcomes produce identical bytes, which is the determinism
// contract RunSim's tests (and `make loadgen-smoke`) pin with a plain file
// compare.
func (r *Report) Artifact() ([]byte, error) {
	doc := artifactDoc{Benchmarks: []artifactBench{{
		Name:       r.Name,
		Iterations: int64(r.Ops),
		Metrics:    r.metrics(),
	}}}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Validate schema-checks an artifact: the benchjson document shape, one
// benchmark per run, every required metric present, finite and
// non-negative, and the latency percentiles monotone. `hidb-loadgen
// -check` runs it in CI against the smoke run's output.
func Validate(data []byte) error {
	var doc artifactDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("loadgen: artifact is not a benchjson document: %w", err)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("loadgen: artifact has no benchmarks")
	}
	required := []string{
		"p50_ms", "p95_ms", "p99_ms", "max_ms", "ops", "qps",
		"shed_503", "quota_429", "aborted", "resumed", "errors",
		"tuples", "paid_queries", "elapsed_ms",
	}
	for _, b := range doc.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("loadgen: artifact benchmark with empty name")
		}
		for _, key := range required {
			v, ok := b.Metrics[key]
			if !ok {
				return fmt.Errorf("loadgen: %s: missing metric %q", b.Name, key)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("loadgen: %s: metric %q = %v out of range", b.Name, key, v)
			}
		}
		p50, p95, p99, max := b.Metrics["p50_ms"], b.Metrics["p95_ms"], b.Metrics["p99_ms"], b.Metrics["max_ms"]
		if p50 > p95 || p95 > p99 || p99 > max {
			return fmt.Errorf("loadgen: %s: latency percentiles not monotone: p50=%v p95=%v p99=%v max=%v",
				b.Name, p50, p95, p99, max)
		}
	}
	return nil
}
