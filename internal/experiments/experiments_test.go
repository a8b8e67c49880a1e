package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"hidb/internal/core"
	"hidb/internal/tabulate"
)

// testConfig scales the workloads down so the full suite stays fast while
// the qualitative shapes (who wins, how costs scale) remain assertable.
func testConfig() Config {
	return Config{DataSeed: 11, PrioritySeed: 42, Scale: 0.08}
}

func seriesByLabel(t *testing.T, f *Figure, label string) []float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s.Values
		}
	}
	t.Fatalf("figure %s has no series %q", f.ID, label)
	return nil
}

func TestFigure10aShape(t *testing.T) {
	fig, err := Figure10a(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rank := seriesByLabel(t, fig, "rank-shrink")
	bin := seriesByLabel(t, fig, "binary-shrink")
	for i := range fig.X {
		// The optimal algorithm must not lose to the baseline.
		if rank[i] > bin[i] {
			t.Errorf("k=%v: rank-shrink %v > binary-shrink %v", fig.X[i], rank[i], bin[i])
		}
	}
	// Costs fall as k grows (inverse scaling, Lemma 2).
	for i := 1; i < len(rank); i++ {
		if rank[i] > rank[i-1] {
			t.Errorf("rank-shrink cost rose with k: %v -> %v", rank[i-1], rank[i])
		}
	}
	// Doubling k should roughly halve the cost at the small-k end.
	if rank[0] < rank[1]*1.4 {
		t.Errorf("rank-shrink not ~inverse in k: k=64 cost %v vs k=128 cost %v", rank[0], rank[1])
	}
}

func TestFigure10bShape(t *testing.T) {
	fig, err := Figure10b(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rank := seriesByLabel(t, fig, "rank-shrink")
	// The paper's observation: rank-shrink stays nearly flat in d. Allow a
	// generous 3x band to keep the test robust across seeds.
	min, max := rank[0], rank[0]
	for _, v := range rank {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max > 3*min {
		t.Errorf("rank-shrink cost varies %vx across d, want near-flat", max/min)
	}
}

func TestFigure10cShape(t *testing.T) {
	fig, err := Figure10c(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rank := seriesByLabel(t, fig, "rank-shrink")
	// Cost grows with n...
	for i := 1; i < len(rank); i++ {
		if rank[i] < rank[i-1] {
			t.Errorf("rank-shrink cost fell as n grew: %v -> %v", rank[i-1], rank[i])
		}
	}
	// ...and roughly linearly: the 100% dataset should cost no more than
	// ~8x the 20% dataset (5x tuples, generous slack).
	if rank[len(rank)-1] > 8*rank[0] {
		t.Errorf("rank-shrink super-linear in n: %v at 20%% vs %v at 100%%", rank[0], rank[len(rank)-1])
	}
}

func TestFigure11aShape(t *testing.T) {
	fig, err := Figure11a(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dfs := seriesByLabel(t, fig, "dfs")
	eager := seriesByLabel(t, fig, "slice-cover")
	lazy := seriesByLabel(t, fig, "lazy-slice-cover")
	for i := range fig.X {
		// Lazy never issues more than eager (+1 root query).
		if lazy[i] > eager[i]+1 {
			t.Errorf("k=%v: lazy %v > eager %v", fig.X[i], lazy[i], eager[i])
		}
	}
	// At the largest k, lazy must clearly beat slice-cover (whose
	// preprocessing cost is flat at Σ Ui) — the paper's headline finding.
	last := len(fig.X) - 1
	if lazy[last]*2 > eager[last] {
		t.Errorf("lazy (%v) not clearly below slice-cover (%v) at k=1024", lazy[last], eager[last])
	}
	// DFS must be the worst at the smallest k.
	if dfs[0] < lazy[0] {
		t.Errorf("k=64: dfs %v beat lazy %v", dfs[0], lazy[0])
	}
}

func TestFigure11cShape(t *testing.T) {
	fig, err := Figure11c(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy := seriesByLabel(t, fig, "lazy-slice-cover")
	for i := 1; i < len(lazy); i++ {
		if lazy[i] < lazy[i-1] {
			t.Errorf("lazy-slice-cover cost fell as n grew: %v -> %v", lazy[i-1], lazy[i])
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	cfg := testConfig()
	// At this scale the Yahoo duplicate block shrinks below 64, so every k
	// is solvable; the full-size unsolvability is asserted in
	// TestFigure12FullScaleUnsolvable.
	fig, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for i := 1; i < len(s.Values); i++ {
			if math.IsNaN(s.Values[i]) || math.IsNaN(s.Values[i-1]) {
				continue
			}
			if s.Values[i] > s.Values[i-1] {
				t.Errorf("%s: hybrid cost rose with k: %v -> %v", s.Label, s.Values[i-1], s.Values[i])
			}
		}
	}
}

func TestFigure12FullScaleUnsolvable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in -short mode")
	}
	fig, err := Figure12(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	yahoo := seriesByLabel(t, fig, "yahoo-like")
	if !math.IsNaN(yahoo[0]) {
		t.Errorf("yahoo at k=64 = %v, want unsolvable (the dataset holds >64 duplicates)", yahoo[0])
	}
	for _, v := range yahoo[1:] {
		if math.IsNaN(v) {
			t.Error("yahoo unsolvable above k=64")
		}
	}
	adult := seriesByLabel(t, fig, "adult-like")
	for _, v := range adult {
		if math.IsNaN(v) {
			t.Error("adult should be solvable at every k")
		}
	}
	// Render path for the unsolvable marker.
	if !strings.Contains(fig.Table().String(), "unsolvable") {
		t.Error("table does not render the unsolvable marker")
	}
}

func TestFigure13NearLinear(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.2
	fig, err := Figure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		// Deciles are cumulative percentages: monotone, ending at 100.
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] < s.Values[i-1] {
				t.Errorf("%s: progress decreased: %v -> %v", s.Label, s.Values[i-1], s.Values[i])
			}
		}
		if last := s.Values[len(s.Values)-1]; math.Abs(last-100) > 1e-9 {
			t.Errorf("%s: final decile %v, want 100", s.Label, last)
		}
		// Near-linearity: no decile may deviate from the diagonal by more
		// than 35 percentage points (the paper's curves stay well within).
		for i, v := range s.Values {
			diag := float64((i + 1) * 10)
			if math.Abs(v-diag) > 35 {
				t.Errorf("%s: decile %d%% at %v%%, too far from linear", s.Label, (i+1)*10, v)
			}
		}
	}
}

func TestProgressCurveComplete(t *testing.T) {
	cfg := testConfig()
	ds := mixedDatasets(cfg)[1] // adult-like
	curve, err := ProgressCurve(cfg, ds, 128)
	if err != nil {
		t.Fatal(err)
	}
	if curve.At(1.0) != 1.0 {
		t.Errorf("curve does not reach 100%%: %v", curve.At(1.0))
	}
}

func TestTheorem3Sandwich(t *testing.T) {
	c, err := Theorem3(testConfig(), 20, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost < c.LowerBound {
		t.Errorf("cost %d below the information-theoretic lower bound %d", c.Cost, c.LowerBound)
	}
	if c.Cost > c.UpperBound {
		t.Errorf("cost %d above the Lemma-2 upper bound %d", c.Cost, c.UpperBound)
	}
}

func TestTheorem4WithinBound(t *testing.T) {
	for _, alg := range []string{"slice-cover", "lazy-slice-cover"} {
		crawler, err := core.ByName(alg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Theorem4(testConfig(), 6, 3, crawler)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cost > c.UpperBound {
			t.Errorf("%s cost %d above Lemma-4 bound %d", alg, c.Cost, c.UpperBound)
		}
	}
}

func TestAblationDependencyFilterNeverWorse(t *testing.T) {
	cfg := testConfig()
	fig, err := AblationDependencyFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := seriesByLabel(t, fig, "hybrid")
	filtered := seriesByLabel(t, fig, "hybrid+deps")
	for i := range fig.X {
		if filtered[i] > plain[i] {
			t.Errorf("k=%v: dependency knowledge increased cost %v -> %v",
				fig.X[i], plain[i], filtered[i])
		}
	}
}

func TestAblationSplitThresholdComplete(t *testing.T) {
	fig, err := AblationSplitThreshold(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fig.Series[0].Values {
		if v <= 0 {
			t.Error("threshold ablation produced a non-positive cost")
		}
	}
}

func TestFigure9Tables(t *testing.T) {
	tables := Figure9(testConfig())
	if len(tables) != 3 {
		t.Fatalf("Figure9 returned %d tables, want 3", len(tables))
	}
	for _, tb := range tables {
		if numRows(tb) == 0 {
			t.Errorf("table %q empty", tb.Title)
		}
	}
	// NSF table must list the 29042-value attribute.
	if !strings.Contains(tables[1].String(), "29042") {
		t.Error("NSF table missing the PI-name domain size")
	}
}

func TestReportSmoke(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig()
	cfg.Scale = 0.03
	err := Report(&sb, cfg, map[string]bool{"9": true, "10a": true, "13": true}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 9", "Figure 10a", "Figure 13"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Figure 12") {
		t.Error("report ran an unrequested figure")
	}
	// CSV mode.
	sb.Reset()
	if err := Report(&sb, cfg, map[string]bool{"10a": true}, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "k,binary-shrink,rank-shrink") {
		t.Errorf("CSV header missing:\n%s", sb.String())
	}
}

func TestFigure11bShape(t *testing.T) {
	fig, err := Figure11b(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eager := seriesByLabel(t, fig, "slice-cover")
	lazy := seriesByLabel(t, fig, "lazy-slice-cover")
	for i := range fig.X {
		// The lazy variant wins at every dimensionality (k=256).
		if lazy[i] >= eager[i] {
			t.Errorf("d=%v: lazy %v >= slice-cover %v", fig.X[i], lazy[i], eager[i])
		}
	}
}

func TestAblationParallelShape(t *testing.T) {
	cfg := testConfig()
	fig, err := AblationParallel(cfg, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	queries := seriesByLabel(t, fig, "queries")
	for i := 1; i < len(queries); i++ {
		if queries[i] != queries[0] {
			t.Errorf("query cost changed with workers: %v vs %v", queries[i], queries[0])
		}
	}
	// The wall clock is virtual and deterministic, so the assertions are
	// exact, not tolerance-padded: parallelism helps, and the pipelined
	// dispatcher is never slower than flush-on-completion.
	flush := seriesByLabel(t, fig, "wall-clock-inflight1-ms")
	piped := seriesByLabel(t, fig, "wall-clock-inflight2-ms")
	if last := piped[len(piped)-1]; last > flush[0] {
		t.Errorf("32 pipelined workers (%vms) slower than 1 worker (%vms)", last, flush[0])
	}
	for i := range piped {
		if piped[i] > flush[i] {
			t.Errorf("inflight=2 slower than inflight=1 at point %d: %vms vs %vms", i, piped[i], flush[i])
		}
	}
}

func TestReportTheoremsAndAblations(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig()
	cfg.Scale = 0.03
	err := Report(&sb, cfg, map[string]bool{"theorems": true, "ablations": true}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Lower/upper bound verification",
		"Figure A1", "Figure A2", "Figure A3", "Figure A4", "Figure A5",
		"priority permutation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report skipped in -short mode")
	}
	var sb strings.Builder
	cfg := testConfig()
	cfg.Scale = 0.03
	only := map[string]bool{
		"10b": true, "10c": true, "11b": true, "11c": true, "12": true,
	}
	if err := Report(&sb, cfg, only, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 10b", "Figure 10c", "Figure 11b", "Figure 11c", "Figure 12"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAblationEagerVsLazyRuns(t *testing.T) {
	fig, err := AblationEagerVsLazy(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy := seriesByLabel(t, fig, "hybrid")
	eager := seriesByLabel(t, fig, "hybrid-eager")
	if len(lazy) != 2 || len(eager) != 2 {
		t.Fatal("eager-vs-lazy ablation missing datasets")
	}
}

func TestAblationAttributeOrderRuns(t *testing.T) {
	fig, err := AblationAttributeOrder(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	asc := seriesByLabel(t, fig, "ascending-domains")
	desc := seriesByLabel(t, fig, "descending-domains")
	for i := range asc {
		if asc[i] <= 0 || desc[i] <= 0 {
			t.Error("attribute-order ablation produced non-positive costs")
		}
	}
}

func TestAblationPrioritySeedsRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.03
	tb, err := AblationPrioritySeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := numRows(tb); n != 3 {
		t.Fatalf("priority-seed table has %d rows, want 3", n)
	}
}

// numRows counts a table's data rows: its CSV lines after the header.
func numRows(tb *tabulate.Table) int {
	return strings.Count(tb.CSV(), "\n") - 1
}

// TestAblationFleetShape: the fleet ablation's acceptance invariants at
// test scale — the fleet pays the store exactly one solo crawl regardless
// of size, the naive paper-mode cost grows linearly, and the measured hit
// rate clears 0.9 from fleet size 8 up.
func TestAblationFleetShape(t *testing.T) {
	fig, err := AblationFleet(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	paid := seriesByLabel(t, fig, "fleet-paid")
	naive := seriesByLabel(t, fig, "fleet-naive")
	hitrate := seriesByLabel(t, fig, "fleet-hitrate")
	for i, m := range fig.X {
		if paid[i] != paid[0] {
			t.Errorf("fleet of %v paid %v, want the flat solo cost %v", m, paid[i], paid[0])
		}
		if want := m * (naive[0] / fig.X[0]); naive[i] != want {
			t.Errorf("naive cost at %v = %v, want %v", m, naive[i], want)
		}
		if m >= 8 && hitrate[i] < 0.9 {
			t.Errorf("fleet of %v hit rate %v, want >= 0.9", m, hitrate[i])
		}
		if i > 0 && hitrate[i] <= hitrate[i-1] {
			t.Errorf("hit rate not increasing in fleet size: %v after %v", hitrate[i], hitrate[i-1])
		}
	}
}
