package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

// specPath is the benchmark description, read from the repository root.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json that compare and check read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// record is one run's result tagged with what was run, one JSON line of an
// --out file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// checkMain verifies that every record carries exactly the metrics
// BENCHMARK.json names for its mode, each finite and with its unit, and
// that every run was correct.
func checkMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: hidb-bench check runs.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidb-bench check:", err)
		return 1
	}
	recs, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidb-bench check:", err)
		return 1
	}
	bad := 0
	for _, rec := range recs {
		if err := checkRecord(spec, rec); err != nil {
			fmt.Printf("%s seed %d trace %d: %v\n", rec.Workload, rec.Seed, rec.Trace, err)
			bad++
		}
	}
	fmt.Printf("%d records checked, %d failed\n", len(recs), bad)
	if bad > 0 || len(recs) == 0 {
		return 1
	}
	return 0
}

func checkRecord(spec benchSpec, rec record) error {
	var errs []error
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		errs = append(errs, fmt.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed))
	}
	want := spec.EndToEnd
	if rec.Trace == 1 {
		want = spec.PerLayer
	}
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s missing", m.Name))
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("%s has unit %q, want %q", m.Name, got.Unit, m.Unit))
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			errs = append(errs, fmt.Errorf("%s is not finite", m.Name))
		}
	}
	for name := range rec.Metrics {
		if !names[name] {
			errs = append(errs, fmt.Errorf("%s is not named in BENCHMARK.json", name))
		}
	}
	return errors.Join(errs...)
}

// compareMain judges a change's records against its parent's, workload by
// workload, with each end-to-end metric's bound from BENCHMARK.json, and
// lists the per-layer medians of any traced records side by side.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hidb-bench compare parent.jsonl change.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidb-bench compare:", err)
		return 1
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b []record
		if b, err = readRecords(args[1]); err == nil {
			return compare(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "hidb-bench compare:", err)
	return 1
}

func compare(spec benchSpec, a, b []record) int {
	regressed := 0
	fmt.Printf("%-15s %-18s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "parent", "change", "change%", "spreadP%", "spreadC%", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := pairRuns(a, b, w.Name, 0, m.Name)
			if len(av) == 0 {
				continue
			}
			v := judge(m, av, bv)
			if v.verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%-15s %-18s %12.6g %12.6g %+8.2f %8.2f %8.2f  %s\n",
				w.Name, m.Name, v.parent, v.change, 100*v.delta, 100*v.spreadA, 100*v.spreadB, v.verdict)
		}
	}
	fmt.Printf("\n%-15s %-34s %12s %12s\n", "workload", "per-layer metric", "parent", "change")
	for _, w := range spec.Workloads {
		for _, m := range spec.PerLayer {
			av, bv := pairRuns(a, b, w.Name, 1, m.Name)
			if len(av) == 0 {
				continue
			}
			fmt.Printf("%-15s %-34s %12.6g %12.6g\n", w.Name, m.Name, median(av), median(bv))
		}
	}
	if regressed > 0 {
		fmt.Printf("\n%d metric(s) regressed beyond their bound\n", regressed)
		return 1
	}
	return 0
}

// pairRuns matches parent and change runs of one workload and mode by
// seed, in file order, and returns the metric's values: av[i] and bv[i]
// are a pair.
func pairRuns(a, b []record, workload string, trace int, name string) (av, bv []float64) {
	values := func(recs []record) map[uint64][]float64 {
		out := map[uint64][]float64{}
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				out[r.Seed] = append(out[r.Seed], m.Value)
			}
		}
		return out
	}
	va, vb := values(a), values(b)
	for _, s := range slices.Sorted(maps.Keys(va)) {
		n := min(len(va[s]), len(vb[s]))
		av, bv = append(av, va[s][:n]...), append(bv, vb[s][:n]...)
	}
	return av, bv
}

// verdict is one metric's comparison on one workload.
type verdict struct {
	parent, change   float64 // medians
	delta            float64 // relative change of the median, positive = worse
	spreadA, spreadB float64 // quartile distance over median
	verdict          string
}

// judge applies the benchmark's rules to paired runs (av[i] and bv[i]
// share a seed). A median worse by more than the bound is a regression.
// Otherwise, where either side's spread exceeds the bound the result is
// unresolved — unless every change run beats every parent run. With at
// least ten pairs, a change that wins nine tenths of them and whose median
// moved by more than the parent's quartile distance is an improvement.
func judge(m metricSpec, av, bv []float64) verdict {
	v := verdict{parent: median(av), change: median(bv)}
	sign := 1.0 // orients every value so that lower reads better
	if m.Better == "higher" {
		sign = -1
	}
	v.delta = sign * relChange(v.parent, v.change)
	aq1, aq3 := quartiles(av)
	bq1, bq3 := quartiles(bv)
	v.spreadA, v.spreadB = relSpread(aq3-aq1, v.parent), relSpread(bq3-bq1, v.change)
	wins := 0
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for i := range av {
		if sign*bv[i] < sign*av[i] {
			wins++
		}
		worstB, bestA = max(worstB, sign*bv[i]), min(bestA, sign*av[i])
	}
	allBetter := worstB < bestA
	switch {
	case v.delta > m.Bound:
		v.verdict = "regressed"
	case max(v.spreadA, v.spreadB) > m.Bound && !allBetter:
		v.verdict = "unresolved"
	case v.delta < 0 && len(av) >= 10 && 10*wins >= 9*len(av) && math.Abs(v.change-v.parent) > aq3-aq1:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// relChange is (b-a)/a; a change away from a zero parent is infinite.
func relChange(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), b-a)
	}
	return (b - a) / math.Abs(a)
}

func relSpread(iqr, med float64) float64 {
	if iqr == 0 {
		return 0
	}
	if med == 0 {
		return math.Inf(1)
	}
	return iqr / math.Abs(med)
}
