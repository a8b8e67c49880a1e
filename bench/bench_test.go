package main

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"
)

// TestWorkloadsReportTheirMetrics runs every workload at tiny scale, both
// untraced and traced, and checks the reports against BENCHMARK.json:
// every named metric present, finite and in its unit, and nothing else.
func TestWorkloadsReportTheirMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace := range 2 {
			cfg := config{seed: defaultSeed, trace: trace == 1, small: true, workdir: t.TempDir()}
			res, err := run(context.Background(), w.name, cfg, "")
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if err := checkRecord(spec, record{Workload: w.name, Trace: trace, result: res}); err != nil {
				t.Errorf("%s trace %d: %v", w.name, trace, err)
			}
		}
	}
}

func TestBenchmarkNamesTheWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestTracedStackIsTransparent crawls once through the untraced stack and
// once through the traced one, each over its own identically built store:
// both must pay the reference cost, return the hidden bag, and leave
// byte-identical /stats behind.
func TestTracedStackIsTransparent(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadNamed("crawl-seq-http")
	var stats [2][]byte
	for s := range 2 {
		r, err := w.setup(ctx, config{seed: defaultSeed, trace: s == 1, small: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		rr, err := r.round(ctx, r.stacks[s])
		if err != nil {
			t.Fatalf("stack %d: %v", s, err)
		}
		if rr.paid != r.paid {
			t.Errorf("stack %d paid %d, reference %d", s, rr.paid, r.paid)
		}
		if s == 1 && len(rr.spans) == 0 {
			t.Error("the traced round recorded no spans")
		}
		resp, err := r.stats.Get(r.lb.url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		stats[s], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /stats: %v %s", err, resp.Status)
		}
	}
	if string(stats[0]) != string(stats[1]) {
		t.Errorf("/stats differs:\nuntraced %s\ntraced   %s", stats[0], stats[1])
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(a, b int) (time.Duration, time.Duration) {
		return time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond
	}
	sp := func(l layer, a, b int) span {
		s, e := ms(a, b)
		return span{Layer: l, Start: s, End: e}
	}
	// Two overlapping calls under one 100 ms crawl: the crawl's children
	// cover [10,60], every lower layer nests inside the one above it.
	overlapping := []span{
		sp(lCrawl, 0, 100),
		sp(lClient, 10, 40), sp(lClient, 30, 60),
		sp(lRoundTrip, 12, 38), sp(lRoundTrip, 32, 58),
		sp(lHandler, 14, 36), sp(lHandler, 34, 56),
		sp(lLocal, 15, 35), sp(lLocal, 35, 55),
		sp(lEngine, 16, 30), sp(lEngine, 36, 50),
	}
	want := [numLayers]int{50, 8, 8, 4, 12, 28}
	got := selfTimes(overlapping)
	for l := range numLayers {
		if got[l] != time.Duration(want[l])*time.Millisecond {
			t.Errorf("%s self = %v, want %d ms", layerNames[l], got[l], want[l])
		}
	}
	// In-process: the crawler calls Local directly, layers in between are
	// absent and read zero; one call nests in another's interval.
	local := []span{
		sp(lCrawl, 0, 100),
		sp(lLocal, 10, 50), sp(lLocal, 20, 30), sp(lLocal, 60, 70),
		sp(lEngine, 12, 48), sp(lEngine, 62, 68),
	}
	want = [numLayers]int{50, 0, 0, 0, 18, 42}
	got = selfTimes(local)
	for l := range numLayers {
		if got[l] != time.Duration(want[l])*time.Millisecond {
			t.Errorf("in-process %s self = %v, want %d ms", layerNames[l], got[l], want[l])
		}
	}
}

// TestQuartilesMatchPython pins statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "crawl_s", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{70, 130, 100, 80, 120, 100, 75, 125, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		metric metricSpec
		want   string
	}{
		{"same", steady, steady, lower, "unchanged"},
		{"slower beyond the bound", steady, shift(steady, 1.2), lower, "regressed"},
		{"faster in every pair", steady, shift(steady, 0.9), lower, "improved"},
		{"spread wider than the bound", noisy, noisy, lower, "unresolved"},
		{"higher is better", steady, shift(steady, 0.8), metricSpec{Better: "higher", Bound: 0.1}, "regressed"},
	} {
		if got := judge(c.metric, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
