// Command hidb-bench is the repository's end-to-end crawl benchmark: four
// closed-loop workloads, each crawling a hidden database to completion
// again and again for a fixed time, with the server in the same process
// on a 127.0.0.1 listener. See README.md for the workloads, the metrics
// and how to compare two commits.
//
//	hidb-bench --workload crawl-seq-http --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics; --trace 1 runs the traced stack beside
// the untraced one plus the per-layer ladder and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
//
//	hidb-bench compare parent.jsonl change.jsonl
//	hidb-bench check runs.jsonl
//
// judge two sets of --out records against BENCHMARK.json's bounds, and
// verify a set of records carries every metric BENCHMARK.json names.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median and the last set-up is the one measured.
	setupReps = 3
	// minRounds is the fewest timed rounds per stack, however short the
	// run.
	minRounds = 2
	// runLimit ends a run that has hung; a run normally takes well under a
	// minute.
	runLimit = 170 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's report, printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// scale converts the run's times to the reference host speed (see
	// probe.go).
	scale float64
}

func (res *result) set(name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

// setTime reports a time measured in this run, at the reference host speed.
func (res *result) setTime(name string, v float64, unit string) {
	res.set(name, v*res.scale, unit)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "check":
			os.Exit(checkMain(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "workload: crawl-seq-http, crawl-par-http, crawl-1m-disk or fleet-http")
	seed := flag.Uint64("seed", defaultSeed, "seed every dataset is derived from (1 reproduces the pinned setups)")
	seconds := flag.Int("seconds", 10, "how long the timed phase runs, in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and ladder, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with --trace 1, write every span to this file as JSON lines")
	out := flag.String("out", "", "also append the result, tagged with workload, seed and trace, to this JSON-lines file")
	workdir := flag.String("workdir", "", "directory for the disk workload's store file (default: the system temp directory)")
	flag.Parse()
	if _, ok := workloadNamed(*name); !ok {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	}
	// The workloads are sized for a two-core host that client and server
	// share.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	time.AfterFunc(runLimit, func() { fail(fmt.Errorf("run exceeded %v", runLimit)) })

	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir}
	res, err := run(context.Background(), *name, cfg, *traceOut)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *name, Seed: *seed, Trace: *trace, result: res}); err != nil {
			fail(err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hidb-bench:", err)
	os.Exit(1)
}

// run sets the workload up setupReps times, runs timed rounds for
// cfg.seconds (alternating untraced and traced rounds in a traced run),
// then, traced, the ladder, and reports the metrics. The host probe runs
// before every set-up and every round.
func run(ctx context.Context, name string, cfg config, traceOut string) (result, error) {
	w, _ := workloadNamed(name)
	var probes []float64
	sampleHost := func() error {
		runtime.GC()
		d, err := probe()
		probes = append(probes, d.Seconds())
		return err
	}
	var setups []float64
	var r *rig
	for i := range setupReps {
		if err := sampleHost(); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		rr, err := w.setup(ctx, cfg)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	defer r.close()

	res := result{Correct: true, Metrics: map[string]metric{}}
	if want := pinnedPaid[name]; cfg.seed == defaultSeed && !cfg.small && r.paid != want {
		fmt.Fprintf(os.Stderr, "%s: the reference crawl paid %d queries at the default seed, pinned %d\n", name, r.paid, want)
		res.Correct = false
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / (1 << 20)

	stacks := r.present()
	rounds := make([][]roundResult, len(stacks))
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minRounds*len(stacks) || time.Now().Before(deadline); i++ {
		s := i % len(stacks)
		if err := sampleHost(); err != nil {
			return result{}, err
		}
		rr, err := r.round(ctx, stacks[s])
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "%s: round %d: %v\n", name, i, err)
			continue
		}
		rounds[s] = append(rounds[s], rr)
	}
	for _, rs := range rounds {
		if len(rs) == 0 {
			return result{}, errors.New("no round completed")
		}
	}

	res.scale = probeRef.Seconds() / median(probes)
	fmt.Fprintf(os.Stderr, "%s: host probe median %.1f ms (reference %v): times are scaled by %.3f\n",
		name, 1000*median(probes), probeRef, res.scale)
	if !cfg.trace {
		endToEnd(&res, rounds[0], median(setups), liveHeapMB)
	} else {
		perLayer(&res, rounds[0], rounds[1])
		res.set("host.probe_ms", 1000*median(probes), "ms")
		costs, failed, err := ladder(ctx, r)
		if err != nil {
			return result{}, err
		}
		res.Attempted += len(costs) * ladderReps
		res.Failed += failed
		for _, c := range costs {
			res.setTime("ladder."+c.name+".ns_per_query", c.nsPerQuery, "ns/query")
			res.set("ladder."+c.name+".allocs_per_query", c.allocsPerQuery, "allocs/query")
		}
		if traceOut != "" {
			if err := r.rec.writeJSON(traceOut); err != nil {
				return result{}, err
			}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// endToEnd reports what a user of the crawler sees, from untraced rounds.
// Per-round values are medians over the rounds; latencies pool every
// crawler→server call of every round.
func endToEnd(res *result, rounds []roundResult, setupS, liveHeapMB float64) {
	var wall, cpu, paid, allocs []float64
	var lat []time.Duration
	for _, rr := range rounds {
		wall = append(wall, rr.wall.Seconds())
		cpu = append(cpu, rr.cpu.Seconds())
		paid = append(paid, float64(rr.paid))
		allocs = append(allocs, float64(rr.mallocs)/float64(rr.paid))
		lat = append(lat, rr.lat...)
	}
	res.setTime("crawl_s", median(wall), "s")
	res.setTime("rtt_p50_us", percentile(lat, 0.50), "us")
	res.setTime("rtt_p99_us", percentile(lat, 0.99), "us")
	res.set("paid_queries", median(paid), "queries")
	res.set("allocs_per_query", median(allocs), "allocs/query")
	res.setTime("cpu_s", median(cpu), "s")
	res.set("live_heap_mb", liveHeapMB, "MB")
	res.setTime("setup_s", setupS, "s")
}

// perLayer reports the traced rounds' per-layer numbers. plain holds the
// untraced rounds run alternately with them: the tracing overhead is the
// median ratio of each traced round to the untraced round before it, so
// host drift over the run cancels.
func perLayer(res *result, plain, traced []roundResult) {
	var wall, overhead []float64
	for i := range min(len(plain), len(traced)) {
		overhead = append(overhead, traced[i].wall.Seconds()/plain[i].wall.Seconds()-1)
	}
	var self [numLayers][]float64
	var engineLat []time.Duration
	type series struct {
		unit string
		vals []float64
	}
	per := map[string]*series{}
	add := func(name, unit string, v float64) {
		if per[name] == nil {
			per[name] = &series{unit: unit}
		}
		per[name].vals = append(per[name].vals, v)
	}
	for _, rr := range traced {
		wall = append(wall, rr.wall.Seconds())
		st := selfTimes(rr.spans)
		for l := range numLayers {
			self[l] = append(self[l], ratio(st[l].Seconds(), rr.wall.Seconds()))
		}
		var roundTrips, calls int
		for _, s := range rr.spans {
			switch s.Layer {
			case lEngine:
				engineLat = append(engineLat, s.dur())
			case lRoundTrip:
				roundTrips++
			case lClient:
				calls++
			}
		}
		add("httpclient.retries", "count", float64(roundTrips-calls))
		for _, path := range []string{"scan", "posting", "gallop", "bitmap", "range"} {
			add("index.plan_"+path, "count", float64(rr.plan.Paths[path]))
		}
		add("index.plan_hit_rate", "frac", rr.plan.HitRate())
		add("diskstore.block_hit_rate", "frac", ratio(float64(rr.engine.CacheHits), float64(rr.engine.CacheHits+rr.engine.CacheMisses)))
		add("diskstore.block_misses", "count", float64(rr.engine.CacheMisses))
		var replays, hits, waits, leads int
		for _, s := range rr.stats.Sessions {
			replays += s.Replays
			hits += s.SharedHits
			waits += s.SharedWaits
			leads += s.SharedLeads
		}
		add("session.replays", "count", float64(replays))
		add("session.shared_hits", "count", float64(hits))
		add("session.shared_waits", "count", float64(waits))
		add("session.shared_leads", "count", float64(leads))
		add("memo.hit_rate", "frac", 1-ratio(float64(rr.paid), float64(rr.asks)))
		add("parallel.round_trips", "count", float64(rr.calls))
		add("parallel.batch_width", "queries/call", ratio(float64(rr.asks), float64(rr.calls)))
		add("parallel.inflight_mean", "calls", ratio(rr.busy.Seconds(), rr.wall.Seconds()))
	}
	for l := range numLayers {
		res.set(layerNames[l]+".self_frac", median(self[l]), "frac")
	}
	res.setTime("index.select_us_p50", percentile(engineLat, 0.50), "us")
	res.setTime("index.select_us_p99", percentile(engineLat, 0.99), "us")
	for name, s := range per {
		res.set(name, median(s.vals), s.unit)
	}
	res.setTime("trace.crawl_s", median(wall), "s")
	res.set("trace.overhead_frac", median(overhead), "frac")
}
