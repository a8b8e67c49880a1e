package datagen

import (
	"fmt"
	"slices"
	"testing"

	"hidb/internal/dataspace"
)

func TestAdultLikeShape(t *testing.T) {
	ds := AdultLike(11)
	if ds.N() != AdultN {
		t.Fatalf("n = %d, want %d", ds.N(), AdultN)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	sch := ds.Schema
	if sch.Dims() != 14 || sch.Cat() != 8 {
		t.Fatalf("schema dims=%d cat=%d, want 14/8", sch.Dims(), sch.Cat())
	}
	// Figure 9 domain sizes, left to right.
	wantDomains := []int{2, 5, 6, 6, 7, 8, 14, 41}
	for i, want := range wantDomains {
		if got := sch.Attr(i).DomainSize; got != want {
			t.Errorf("attr %s domain = %d, want %d", sch.Attr(i).Name, got, want)
		}
	}
}

func TestAdultNumericDistinctOrdering(t *testing.T) {
	ds := AdultNumeric(11)
	if ds.Schema.Dims() != 6 || !ds.Schema.IsNumeric() {
		t.Fatalf("adult-numeric schema wrong: %s", ds.Schema)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's distinct-count order: Fnalwgt > Cap-gain > Cap-loss >
	// Wrk-hr > Age > Edu-num. Figure 10b's d sweep depends on it.
	counts := ds.Tuples.DistinctValues(6)
	name := func(i int) string { return ds.Schema.Attr(i).Name }
	order := map[string]int{}
	for i := 0; i < 6; i++ {
		order[name(i)] = counts[i]
	}
	chain := []string{"Fnalwgt", "Cap-gain", "Cap-loss", "Wrk-hr", "Age", "Edu-num"}
	for i := 0; i+1 < len(chain); i++ {
		if order[chain[i]] <= order[chain[i+1]] {
			t.Errorf("distinct(%s)=%d not > distinct(%s)=%d",
				chain[i], order[chain[i]], chain[i+1], order[chain[i+1]])
		}
	}
	// Heavy zero mass on capital gain/loss (the 3-way-split trigger).
	zeroLoss := 0
	li := slices.IndexFunc(ds.Schema.Attrs(), func(a dataspace.Attribute) bool { return a.Name == "Cap-loss" })
	for _, tu := range ds.Tuples {
		if tu[li] == 0 {
			zeroLoss++
		}
	}
	if frac := float64(zeroLoss) / float64(ds.N()); frac < 0.90 {
		t.Errorf("Cap-loss zero fraction %v, want >= 0.90", frac)
	}
}

func TestNSFLikeShape(t *testing.T) {
	ds := NSFLike(11)
	if ds.N() != NSFN {
		t.Fatalf("n = %d, want %d", ds.N(), NSFN)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ds.Schema.IsCategorical() || ds.Schema.Dims() != 9 {
		t.Fatalf("NSF schema wrong: %s", ds.Schema)
	}
	wantDomains := []int{5, 8, 49, 58, 58, 654, 1093, 3110, 29042}
	for i, want := range wantDomains {
		if got := ds.Schema.Attr(i).DomainSize; got != want {
			t.Errorf("attr %s domain = %d, want %d", ds.Schema.Attr(i).Name, got, want)
		}
	}
}

func TestYahooLikeShape(t *testing.T) {
	ds := YahooLike(11)
	if ds.N() != YahooN {
		t.Fatalf("n = %d, want %d", ds.N(), YahooN)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Schema.Cat() != 3 || ds.Schema.Dims() != 6 {
		t.Fatalf("Yahoo schema wrong: %s", ds.Schema)
	}
	// The duplicate block makes k=64 unsolvable and k=128 solvable.
	mult := ds.Tuples.MaxMultiplicity()
	if mult != YahooDuplicates {
		t.Fatalf("max multiplicity = %d, want %d", mult, YahooDuplicates)
	}
	if mult <= 64 || mult > 128 {
		t.Fatalf("duplicate count %d must lie in (64,128] for Figure 12", mult)
	}
	// The body-style dependency must hold everywhere.
	for _, tu := range ds.Tuples {
		if !makeSellsBody(tu[2], tu[1]) {
			t.Fatalf("tuple %v violates the make->body-style dependency", tu)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := YahooLikeN(2000, 5), YahooLikeN(2000, 5)
	if !a.Tuples.EqualMultiset(b.Tuples) {
		t.Error("YahooLikeN not deterministic")
	}
	c := YahooLikeN(2000, 6)
	if a.Tuples.EqualMultiset(c.Tuples) {
		t.Error("different seeds gave identical Yahoo data")
	}
}

func TestSample(t *testing.T) {
	ds := NSFLikeN(10000, 3)
	s := ds.Sample(0.3, 7)
	frac := float64(s.N()) / float64(ds.N())
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("30%% sample kept %v", frac)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	full := ds.Sample(1.0, 7)
	if full.N() != ds.N() {
		t.Error("100% sample dropped tuples")
	}
}

func TestProjectDataset(t *testing.T) {
	ds := AdultLikeN(1000, 3)
	p, err := ds.Project([]int{0, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema.Dims() != 3 || p.N() != 1000 {
		t.Fatalf("projection shape wrong: dims=%d n=%d", p.Schema.Dims(), p.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopDistinct(t *testing.T) {
	ds := AdultNumericN(5000, 3)
	cols := ds.TopDistinct(3, dataspace.Numeric)
	if len(cols) != 3 {
		t.Fatalf("TopDistinct returned %d cols", len(cols))
	}
	counts := ds.Tuples.DistinctValues(ds.Schema.Dims())
	// Every selected column must have at least as many distinct values as
	// every unselected one.
	sel := map[int]bool{}
	minSel := 1 << 30
	for _, c := range cols {
		sel[c] = true
		if counts[c] < minSel {
			minSel = counts[c]
		}
	}
	for i := 0; i < ds.Schema.Dims(); i++ {
		if !sel[i] && counts[i] > minSel {
			t.Errorf("unselected attr %d has %d distinct > selected min %d", i, counts[i], minSel)
		}
	}
	// Results keep schema order.
	for i := 1; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			t.Error("TopDistinct columns not in schema order")
		}
	}
	// Asking for more than available truncates.
	if got := ds.TopDistinct(99, dataspace.Numeric); len(got) != 6 {
		t.Errorf("TopDistinct(99) returned %d cols, want 6", len(got))
	}
	if got := ds.TopDistinct(2, dataspace.Categorical); len(got) != 0 {
		t.Errorf("TopDistinct on absent kind returned %d cols", len(got))
	}
}

func TestHardNumericStructure(t *testing.T) {
	m, d, k := 10, 3, 8
	ds, err := HardNumeric(m, d, k)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != m*(k+d) {
		t.Fatalf("n = %d, want m(k+d) = %d", ds.N(), m*(k+d))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each group: k diagonal duplicates + d distinct off-diagonal points.
	if got := ds.Tuples.MaxMultiplicity(); got != k {
		t.Fatalf("max multiplicity = %d, want k = %d", got, k)
	}
	points := map[string]bool{}
	for _, tu := range ds.Tuples {
		points[fmt.Sprint(tu)] = true
	}
	if got := len(points); got != m*(d+1) {
		t.Fatalf("distinct points = %d, want m(d+1) = %d", got, m*(d+1))
	}
	if lb := HardNumericLowerBound(m, d); lb != 30 {
		t.Fatalf("lower bound = %d, want 30", lb)
	}
	// Constructor constraints.
	if _, err := HardNumeric(5, 10, 4); err == nil {
		t.Error("d > k accepted")
	}
	if _, err := HardNumeric(0, 1, 1); err == nil {
		t.Error("m = 0 accepted")
	}
}

func TestHardCategoricalStructure(t *testing.T) {
	u, k := 6, 3
	ds, err := HardCategorical(u, k)
	if err != nil {
		t.Fatal(err)
	}
	d := 2 * k
	if ds.N() != d*u {
		t.Fatalf("n = %d, want dU = %d", ds.N(), d*u)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Schema.Dims() != d || !ds.Schema.IsCategorical() {
		t.Fatalf("schema wrong: %s", ds.Schema)
	}
	// Every tuple takes one value on d-1 attributes (the group value) and
	// a different value on exactly one attribute.
	for _, tu := range ds.Tuples {
		freq := map[int64]int{}
		for _, v := range tu {
			freq[v]++
		}
		if len(freq) != 2 {
			t.Fatalf("tuple %v has %d distinct values, want 2", tu, len(freq))
		}
		counts := []int{}
		for _, c := range freq {
			counts = append(counts, c)
		}
		if !(counts[0] == 1 && counts[1] == d-1) && !(counts[0] == d-1 && counts[1] == 1) {
			t.Fatalf("tuple %v value counts %v, want {1, d-1}", tu, counts)
		}
	}
	if _, err := HardCategorical(2, 3); err == nil {
		t.Error("U < 3 accepted")
	}
}

func TestRandomSpecValidation(t *testing.T) {
	if _, err := Random(RandomSpec{N: 10}, 1); err == nil {
		t.Error("spec without attributes accepted")
	}
	if _, err := Random(RandomSpec{N: -1, CatDomains: []int{2}}, 1); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := Random(RandomSpec{N: 1, CatDomains: []int{0}}, 1); err == nil {
		t.Error("zero domain accepted")
	}
	if _, err := Random(RandomSpec{N: 1, NumRanges: [][2]int64{{5, 1}}}, 1); err == nil {
		t.Error("inverted range accepted")
	}
	ds, err := Random(RandomSpec{
		N:          500,
		CatDomains: []int{3, 7},
		NumRanges:  [][2]int64{{-10, 10}},
		Skew:       1.0,
		DupRate:    0.2,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 500 {
		t.Fatalf("n = %d", ds.N())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Tuples.MaxMultiplicity() < 2 {
		t.Error("DupRate 0.2 produced no duplicates in 500 tuples")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"yahoo", "nsf", "adult", "adult-numeric"} {
		ds, err := ByName(name, 500, 3)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if ds.N() != 500 {
			t.Errorf("%s: n = %d, want 500", name, ds.N())
		}
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// n = 0 means the paper's cardinality.
	ds, err := ByName("nsf", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != NSFN {
		t.Errorf("default n = %d, want %d", ds.N(), NSFN)
	}
	if _, err := ByName("mystery", 0, 3); err == nil {
		t.Error("unknown dataset name accepted")
	}
}
