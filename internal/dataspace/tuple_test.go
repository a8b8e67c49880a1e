package dataspace

import (
	"testing"
	"testing/quick"
)

func TestTupleEqualCompare(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := Tuple{1, 2, 3}
	c := Tuple{1, 2, 4}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal wrong")
	}
	if a.Compare(b) != 0 || a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("Compare wrong on same-length tuples")
	}
	short := Tuple{1, 2}
	if short.Compare(a) != -1 || a.Compare(short) != 1 {
		t.Error("Compare wrong on prefix tuples")
	}
	if a.Equal(short) {
		t.Error("tuples of different arity compare equal")
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	a := Tuple{1, 2}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestTupleValidate(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "C", Kind: Categorical, DomainSize: 3},
		{Name: "N", Kind: Numeric},
	})
	if err := (Tuple{2, -5}).Validate(s); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := (Tuple{2}).Validate(s); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := (Tuple{0, 0}).Validate(s); err == nil {
		t.Error("categorical value 0 accepted (domain is 1..U)")
	}
	if err := (Tuple{4, 0}).Validate(s); err == nil {
		t.Error("categorical value above domain accepted")
	}
}

func TestBagEqualMultiset(t *testing.T) {
	a := Bag{{1, 1}, {2, 2}, {1, 1}}
	b := Bag{{2, 2}, {1, 1}, {1, 1}}
	c := Bag{{1, 1}, {2, 2}, {2, 2}}
	if !a.EqualMultiset(b) {
		t.Error("permuted bags not equal")
	}
	if a.EqualMultiset(c) {
		t.Error("bags with different multiplicities equal")
	}
	if a.EqualMultiset(a[:2]) {
		t.Error("bags of different size equal")
	}
	var empty Bag
	if !empty.EqualMultiset(Bag{}) {
		t.Error("empty bags not equal")
	}
}

func TestBagEqualMultisetDoesNotMutate(t *testing.T) {
	a := Bag{{3, 0}, {1, 0}, {2, 0}}
	_ = a.EqualMultiset(Bag{{1, 0}, {2, 0}, {3, 0}})
	if !a[0].Equal(Tuple{3, 0}) {
		t.Error("EqualMultiset reordered its receiver")
	}
}

func TestMaxMultiplicity(t *testing.T) {
	cases := []struct {
		bag  Bag
		want int
	}{
		{Bag{}, 0},
		{Bag{{1}}, 1},
		{Bag{{1}, {2}, {1}, {1}}, 3},
		{Bag{{1}, {1}, {2}, {2}, {2}}, 3},
	}
	for i, c := range cases {
		if got := c.bag.MaxMultiplicity(); got != c.want {
			t.Errorf("case %d: MaxMultiplicity = %d, want %d", i, got, c.want)
		}
	}
}

func TestDistinctPointsAndValues(t *testing.T) {
	b := Bag{{1, 10}, {1, 10}, {1, 20}, {2, 10}}
	dv := b.DistinctValues(2)
	if dv[0] != 2 || dv[1] != 2 {
		t.Errorf("DistinctValues = %v, want [2 2]", dv)
	}
}

func TestBagProject(t *testing.T) {
	b := Bag{{1, 10, 100}, {2, 20, 200}}
	p := b.Project([]int{2, 0})
	want := Bag{{100, 1}, {200, 2}}
	if !p.EqualMultiset(want) {
		t.Errorf("Project = %v, want %v", p, want)
	}
	// Projection must deep-copy: mutating the projection leaves the
	// original intact.
	p[0][0] = 999
	if b[0][2] != 100 {
		t.Error("Project shares storage with the source bag")
	}
}

// Property: EqualMultiset is reflexive and permutation-invariant.
func TestEqualMultisetProperty(t *testing.T) {
	f := func(vals []int8, seed uint8) bool {
		bag := make(Bag, len(vals))
		for i, v := range vals {
			bag[i] = Tuple{int64(v % 4), int64(v / 4)}
		}
		if !bag.EqualMultiset(bag) {
			return false
		}
		// Rotate as a cheap permutation.
		rot := make(Bag, len(bag))
		r := int(seed)
		for i := range bag {
			rot[i] = bag[(i+r)%max(1, len(bag))]
		}
		if len(bag) > 0 && !bag.EqualMultiset(rot) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
