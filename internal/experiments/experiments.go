// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6) plus the lower-bound verifications and this
// repository's own ablation studies. Each experiment returns a Figure — a
// set of labeled series over a common x-axis — that can be rendered as an
// aligned table or CSV, asserted on by tests, or reported from benchmarks.
//
// Absolute query counts differ from the paper's because the datasets are
// synthetic stand-ins (see datagen), but the qualitative shapes — which
// algorithm wins, how costs scale with k, d and n, where crawling becomes
// infeasible — are reproduced and asserted by the test suite.
package experiments

import (
	"context"
	"fmt"
	"math"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/tabulate"
)

// Unsolvable marks a series point where Problem 1 has no solution (the
// dataset holds more than k copies of some point), matching the paper's
// missing Yahoo value at k = 64 in Figure 12.
var Unsolvable = math.NaN()

// Config controls dataset generation and server behaviour for a harness run.
type Config struct {
	// DataSeed seeds the dataset generators.
	DataSeed uint64
	// PrioritySeed seeds the server's tuple-priority permutation.
	PrioritySeed uint64
	// Scale multiplies dataset cardinalities; 1.0 reproduces the paper's
	// sizes (45,222 / 47,816 / 69,768 tuples). Tests use smaller scales to
	// stay fast; the benchmarks use 1.0.
	Scale float64
}

// DefaultConfig reproduces the paper's workload sizes with fixed seeds.
func DefaultConfig() Config {
	return Config{DataSeed: 11, PrioritySeed: 42, Scale: 1.0}
}

func (c Config) scaled(n int) int {
	if c.Scale <= 0 || c.Scale == 1.0 {
		return n
	}
	s := int(float64(n) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Series is one plotted line: an algorithm's cost at each x value.
type Series struct {
	// Label names the line, e.g. "rank-shrink".
	Label string
	// Values holds one y value (query count) per x; Unsolvable (NaN) marks
	// points where no algorithm can extract the dataset.
	Values []float64
}

// Figure is the result of one experiment.
type Figure struct {
	// ID is the paper's figure/table number, e.g. "10a".
	ID string
	// Caption describes the experiment.
	Caption string
	// XLabel names the x-axis, e.g. "k".
	XLabel string
	// X holds the x values.
	X []float64
	// Series holds one line per algorithm.
	Series []Series
}

// Table renders the figure as an aligned text table, one row per x value.
func (f *Figure) Table() *tabulate.Table {
	header := append([]string{f.XLabel}, labels(f.Series)...)
	t := tabulate.New(fmt.Sprintf("Figure %s: %s", f.ID, f.Caption), header...)
	for i, x := range f.X {
		row := make([]any, 0, 1+len(f.Series))
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			v := s.Values[i]
			if math.IsNaN(v) {
				row = append(row, "unsolvable")
			} else {
				row = append(row, trimFloat(v))
			}
		}
		t.AddRow(row...)
	}
	return t
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func trimFloat(v float64) any {
	if v == math.Trunc(v) {
		return int64(v)
	}
	return v
}

// runCost crawls the dataset with the algorithm at the given k and returns
// the query cost. It verifies completeness: a crawl that terminates without
// retrieving the exact bag is a bug, not a data point. The server comes
// from the per-config memo, so sweeping k or the algorithm over one dataset
// builds each priority permutation and index once.
func runCost(cfg Config, c core.Crawler, ds *datagen.Dataset, k int) (float64, error) {
	srv, err := localServer(ds, k, cfg.PrioritySeed)
	if err != nil {
		return 0, err
	}
	res, err := c.Crawl(context.Background(), srv, nil)
	if err == core.ErrUnsolvable {
		return Unsolvable, nil
	}
	if err != nil {
		return 0, err
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		return 0, fmt.Errorf("experiments: %s returned an incomplete bag on %s (k=%d): got %d tuples, want %d",
			c.Name(), ds.Name, k, len(res.Tuples), len(ds.Tuples))
	}
	return float64(res.Queries), nil
}

// costSweep runs each algorithm over each dataset in datasets order, one
// dataset per x value.
func costSweep(cfg Config, algs []core.Crawler, datasets []*datagen.Dataset, k int) ([]Series, error) {
	out := make([]Series, len(algs))
	for ai, alg := range algs {
		out[ai] = Series{Label: alg.Name(), Values: make([]float64, len(datasets))}
		for di, ds := range datasets {
			v, err := runCost(cfg, alg, ds, k)
			if err != nil {
				return nil, err
			}
			out[ai].Values[di] = v
		}
	}
	return out, nil
}

// kSweep runs each algorithm over one dataset at each k.
func kSweep(cfg Config, algs []core.Crawler, ds *datagen.Dataset, ks []int) ([]Series, error) {
	out := make([]Series, len(algs))
	for ai, alg := range algs {
		out[ai] = Series{Label: alg.Name(), Values: make([]float64, len(ks))}
		for ki, k := range ks {
			v, err := runCost(cfg, alg, ds, k)
			if err != nil {
				return nil, err
			}
			out[ai].Values[ki] = v
		}
	}
	return out, nil
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// PaperKs is the k sweep used throughout §6: 64, 128, 256, 512, 1024.
func PaperKs() []int { return []int{64, 128, 256, 512, 1024} }

// PaperSamplePercents is the dataset-size sweep of Figures 10c and 11c.
func PaperSamplePercents() []int { return []int{20, 40, 60, 80, 100} }
