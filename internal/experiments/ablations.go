package experiments

import (
	"context"
	"fmt"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/parallel"
	"hidb/internal/tabulate"
)

// The ablations quantify the design choices DESIGN.md calls out: the
// 3-way-split multiplicity threshold (the paper's k/4), the lazy vs eager
// slice phase, the §1.3 attribute-dependency heuristic, sensitivity to the
// server's priority permutation, and the categorical attribute ordering.

// AblationSplitThreshold varies rank-shrink's 3-way-split threshold
// denominator on Adult-numeric at k = 256. The paper's proof needs k/4; the
// measurement shows how performance degrades (or not) around it.
func AblationSplitThreshold(cfg Config) (*Figure, error) {
	ds := adultNumeric(cfg)
	denoms := []int{2, 4, 8, 16}
	s := Series{Label: "rank-shrink", Values: make([]float64, len(denoms))}
	for i, den := range denoms {
		v, err := runCost(cfg, core.RankShrink{SplitDenom: den}, ds, 256)
		if err != nil {
			return nil, err
		}
		s.Values[i] = v
	}
	return &Figure{
		ID:      "A1",
		Caption: "ablation: rank-shrink 3-way-split threshold k/denom (Adult-numeric, k=256)",
		XLabel:  "denom",
		X:       floats(denoms),
		Series:  []Series{s},
	}, nil
}

// AblationEagerVsLazy compares hybrid's lazy slice phase (the paper's
// choice) with an eager one that prefetches every slice query, across the
// two mixed workloads at k = 256.
func AblationEagerVsLazy(cfg Config) (*Figure, error) {
	datasets := mixedDatasets(cfg)
	fig := &Figure{
		ID:      "A2",
		Caption: "ablation: lazy vs eager slice phase of hybrid (k=256)",
		XLabel:  "dataset#",
		X:       floats([]int{1, 2}),
	}
	for _, alg := range []core.Crawler{core.Hybrid{}, core.Hybrid{EagerSlices: true}} {
		s := Series{Label: alg.Name(), Values: make([]float64, len(datasets))}
		for i, ds := range datasets {
			v, err := runCost(cfg, alg, ds, 256)
			if err != nil {
				return nil, err
			}
			s.Values[i] = v
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// DependencyFilter builds the §1.3 heuristic for a dataset: a query that
// pins two categorical attributes to a value combination absent from the
// data is skipped. The knowledge is derived from the ground truth here —
// standing in for the "external knowledge" (e.g. BMW sells no trucks) a
// real crawler would bring.
func DependencyFilter(ds *datagen.Dataset, attrA, attrB int) func(dataspace.Query) bool {
	valid := make(map[[2]int64]bool)
	for _, t := range ds.Tuples {
		valid[[2]int64{t[attrA], t[attrB]}] = true
	}
	return func(q dataspace.Query) bool {
		pa, pb := q.Pred(attrA), q.Pred(attrB)
		if pa.Wild || pb.Wild {
			return true
		}
		return valid[[2]int64{pa.Value, pb.Value}]
	}
}

// AblationDependencyFilter measures the §1.3 heuristic on the Yahoo
// workload: hybrid with and without Body-style×Make dependency knowledge.
// The paper's claim — the query cost can only go down and the upper bounds
// still hold — is asserted by the test suite.
func AblationDependencyFilter(cfg Config) (*Figure, error) {
	ds := yahooLike(cfg)
	ks := []int{128, 256, 512, 1024}
	fig := &Figure{
		ID:      "A3",
		Caption: "ablation: §1.3 attribute-dependency heuristic (Yahoo, hybrid)",
		XLabel:  "k",
		X:       floats(ks),
	}
	filter := DependencyFilter(ds, 1, 2) // Body-style × Make

	plain := Series{Label: "hybrid", Values: make([]float64, len(ks))}
	filtered := Series{Label: "hybrid+deps", Values: make([]float64, len(ks))}
	for i, k := range ks {
		v, err := runCost(cfg, core.Hybrid{}, ds, k)
		if err != nil {
			return nil, err
		}
		plain.Values[i] = v

		srv, err := localServer(ds, k, cfg.PrioritySeed)
		if err != nil {
			return nil, err
		}
		res, err := core.Hybrid{}.Crawl(context.Background(), srv, &core.Options{QueryFilter: filter})
		if err != nil {
			return nil, err
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			return nil, fmt.Errorf("experiments: dependency-filtered hybrid incomplete at k=%d", k)
		}
		filtered.Values[i] = float64(res.Queries)
	}
	fig.Series = append(fig.Series, plain, filtered)
	return fig, nil
}

// AblationPrioritySeeds measures how sensitive the costs are to the
// server's priority permutation: the same crawl under several seeds. The
// paper assigns priorities randomly once; this quantifies the spread that
// choice hides.
func AblationPrioritySeeds(cfg Config) (*tabulate.Table, error) {
	seeds := []uint64{1, 7, 42, 1234, 99991}
	type job struct {
		alg core.Crawler
		ds  *datagen.Dataset
		k   int
	}
	jobs := []job{
		{core.RankShrink{}, adultNumeric(cfg), 256},
		{core.LazySliceCover{}, nsfLike(cfg), 256},
		{core.Hybrid{}, yahooLike(cfg), 256},
	}
	t := tabulate.New("Ablation: cost sensitivity to the priority permutation (k=256)",
		"algorithm", "dataset", "min", "mean", "max")
	for _, j := range jobs {
		min, max, sum := int(^uint(0)>>1), 0, 0
		for _, seed := range seeds {
			c := cfg
			c.PrioritySeed = seed
			v, err := runCost(c, j.alg, j.ds, j.k)
			if err != nil {
				return nil, err
			}
			q := int(v)
			if q < min {
				min = q
			}
			if q > max {
				max = q
			}
			sum += q
		}
		t.AddRow(j.alg.Name(), j.ds.Name, min, sum/len(seeds), max)
	}
	return t, nil
}

// AblationParallel measures the parallel engine: wall-clock time of a full
// Yahoo crawl (k=256) under a simulated per-round-trip network latency, as
// the number of in-flight queries grows — once with the pipeline disabled
// (inflight=1, the flush-on-completion batcher) and once double-buffered
// (inflight=2, the default). The latency is virtual: each crawl runs under
// a deterministic hiddendb.SimClock, so the wall-clock series are exact
// properties of the crawl's dependency structure — reproducible bit for
// bit, and measured in microseconds of real time instead of minutes of
// sleeping. The query cost stays exactly the sequential algorithms' (the
// "queries" series, pinned by the bench baseline); only elapsed time and
// round trips respond to the pipeline. Wall-clock values are milliseconds
// of virtual time.
func AblationParallel(cfg Config, latency time.Duration) (*Figure, error) {
	ds := yahooLike(cfg)
	workerCounts := []int{1, 2, 4, 8, 16, 32}
	flush := Series{Label: "wall-clock-inflight1-ms", Values: make([]float64, len(workerCounts))}
	piped := Series{Label: "wall-clock-inflight2-ms", Values: make([]float64, len(workerCounts))}
	queries := Series{Label: "queries", Values: make([]float64, len(workerCounts))}
	for i, w := range workerCounts {
		for _, depth := range []int{1, 2} {
			srv, err := localServer(ds, 256, cfg.PrioritySeed)
			if err != nil {
				return nil, err
			}
			clock := hiddendb.NewSimClock()
			delayed := hiddendb.NewLatency(srv, latency, clock)
			res, err := parallel.Crawler{Workers: w, InFlight: depth, Clock: clock}.Crawl(context.Background(), delayed, nil)
			if err != nil {
				return nil, err
			}
			if !res.Tuples.EqualMultiset(ds.Tuples) {
				return nil, fmt.Errorf("experiments: parallel crawl incomplete at %d workers", w)
			}
			ms := float64(clock.Now()) / float64(time.Millisecond)
			if depth == 1 {
				flush.Values[i] = ms
			} else {
				piped.Values[i] = ms
				queries.Values[i] = float64(res.Queries)
			}
		}
	}
	return &Figure{
		ID:      "A5",
		Caption: fmt.Sprintf("ablation: parallel crawl virtual wall-clock vs workers (Yahoo, k=256, %v/round-trip latency, inflight 1 vs 2)", latency),
		XLabel:  "workers",
		X:       floats(workerCounts),
		Series:  []Series{flush, piped, queries},
	}, nil
}

// AblationAttributeOrder measures lazy-slice-cover on the 6-attribute NSF
// projection under two categorical attribute orderings: ascending domain
// size (small domains first, the Figure-9 order) and descending. The
// ordering changes which tree levels fan out first and thus the practical
// cost, while Lemma 4's bound holds for both.
func AblationAttributeOrder(cfg Config) (*Figure, error) {
	ds, err := nsfProjected(cfg, 6)
	if err != nil {
		return nil, err
	}
	d := ds.Schema.Dims()
	asc := make([]int, d)
	desc := make([]int, d)
	for i := 0; i < d; i++ {
		asc[i] = i
		desc[i] = d - 1 - i
	}
	reversed, err := ds.Project(desc)
	if err != nil {
		return nil, err
	}
	ks := []int{64, 256, 1024}
	fig := &Figure{
		ID:      "A4",
		Caption: "ablation: categorical attribute order for lazy-slice-cover (NSF d=6)",
		XLabel:  "k",
		X:       floats(ks),
	}
	for _, v := range []struct {
		label string
		ds    *datagen.Dataset
	}{{"ascending-domains", ds}, {"descending-domains", reversed}} {
		s := Series{Label: v.label, Values: make([]float64, len(ks))}
		for i, k := range ks {
			cost, err := runCost(cfg, core.LazySliceCover{}, v.ds, k)
			if err != nil {
				return nil, err
			}
			s.Values[i] = cost
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
