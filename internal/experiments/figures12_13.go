package experiments

import (
	"context"
	"fmt"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/progress"
)

// mixedDatasets returns the two mixed workloads of Figures 12 and 13.
func mixedDatasets(cfg Config) []*datagen.Dataset {
	return []*datagen.Dataset{
		yahooLike(cfg),
		adultLike(cfg),
	}
}

// Figure12 reproduces "Cost of the mixed algorithm hybrid": hybrid's query
// cost on the Yahoo and Adult workloads as k ranges over the paper sweep.
// The Yahoo value at k = 64 is Unsolvable — the dataset holds more than 64
// identical tuples, so no algorithm can extract it (§1.1), exactly as the
// paper reports.
func Figure12(cfg Config) (*Figure, error) {
	ks := PaperKs()
	fig := &Figure{
		ID:      "12",
		Caption: "query cost of the mixed algorithm hybrid vs k (Yahoo and Adult)",
		XLabel:  "k",
		X:       floats(ks),
	}
	for _, ds := range mixedDatasets(cfg) {
		s := Series{Label: ds.Name, Values: make([]float64, len(ks))}
		for ki, k := range ks {
			v, err := runCost(cfg, core.Hybrid{}, ds, k)
			if err != nil {
				return nil, err
			}
			s.Values[ki] = v
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure13 reproduces "Output progressiveness of hybrid (k = 256)": the
// percentage of tuples extracted after each decile of the eventually-needed
// queries. The paper observes near-linear progressiveness on both datasets.
func Figure13(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID:      "13",
		Caption: "output progressiveness of hybrid (k=256): % tuples extracted per decile of queries",
		XLabel:  "queries%",
		X:       []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
	for _, ds := range mixedDatasets(cfg) {
		curve, err := ProgressCurve(cfg, ds, 256)
		if err != nil {
			return nil, err
		}
		deciles := curve.Deciles()
		vals := make([]float64, len(deciles))
		for i, v := range deciles {
			vals[i] = v * 100
		}
		fig.Series = append(fig.Series, Series{Label: ds.Name, Values: vals})
	}
	return fig, nil
}

// ProgressCurve runs hybrid, collecting its OnProgress points, and
// returns the normalized progressiveness curve.
func ProgressCurve(cfg Config, ds *datagen.Dataset, k int) (progress.Curve, error) {
	srv, err := localServer(ds, k, cfg.PrioritySeed)
	if err != nil {
		return nil, err
	}
	var points []core.CurvePoint
	res, err := core.Hybrid{}.Crawl(context.Background(), srv, &core.Options{
		OnProgress: func(p core.CurvePoint) { points = append(points, p) },
	})
	if err != nil {
		return nil, err
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		return nil, fmt.Errorf("experiments: hybrid incomplete on %s (k=%d)", ds.Name, k)
	}
	return progress.Normalize(points, len(res.Tuples)), nil
}
