package dataspace

import (
	"strings"
	"testing"
)

func mixedSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema([]Attribute{
		{Name: "Make", Kind: Categorical, DomainSize: 85},
		{Name: "Body", Kind: Categorical, DomainSize: 7},
		{Name: "Price", Kind: Numeric, Min: 200, Max: 250000},
		{Name: "Year", Kind: Numeric},
	})
}

func TestNewSchemaValid(t *testing.T) {
	s := mixedSchema(t)
	if s.Dims() != 4 {
		t.Fatalf("Dims = %d, want 4", s.Dims())
	}
	if s.Cat() != 2 {
		t.Fatalf("Cat = %d, want 2", s.Cat())
	}
	if s.IsNumeric() || s.IsCategorical() {
		t.Fatalf("kind predicates wrong: numeric=%v categorical=%v",
			s.IsNumeric(), s.IsCategorical())
	}
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
		want  string
	}{
		{"empty", nil, "at least one attribute"},
		{"no name", []Attribute{{Kind: Numeric}}, "empty name"},
		{"dup name", []Attribute{
			{Name: "A", Kind: Numeric},
			{Name: "A", Kind: Numeric},
		}, "duplicate attribute name"},
		{"cat after num", []Attribute{
			{Name: "N", Kind: Numeric},
			{Name: "C", Kind: Categorical, DomainSize: 3},
		}, "categorical attributes must come first"},
		{"cat without domain", []Attribute{
			{Name: "C", Kind: Categorical},
		}, "DomainSize >= 1"},
		{"num with domain", []Attribute{
			{Name: "N", Kind: Numeric, DomainSize: 5},
		}, "must not set DomainSize"},
		{"min > max", []Attribute{
			{Name: "N", Kind: Numeric, Min: 10, Max: 5},
		}, "Min 10 > Max 5"},
		{"bad kind", []Attribute{
			{Name: "X", Kind: Kind(9)},
		}, "invalid kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.attrs)
			if err == nil {
				t.Fatalf("NewSchema succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestSchemaKindPredicates(t *testing.T) {
	num := MustSchema([]Attribute{{Name: "A", Kind: Numeric}})
	if !num.IsNumeric() || num.Cat() != 0 {
		t.Error("pure numeric schema misclassified")
	}
	cat := MustSchema([]Attribute{{Name: "A", Kind: Categorical, DomainSize: 2}})
	if !cat.IsCategorical() || cat.Cat() != 1 {
		t.Error("pure categorical schema misclassified")
	}
}

func TestSchemaBounds(t *testing.T) {
	s := mixedSchema(t)
	lo, hi := s.Attr(0).Bounds()
	if lo != 1 || hi != 85 {
		t.Errorf("categorical bounds = [%d,%d], want [1,85]", lo, hi)
	}
	lo, hi = s.Attr(2).Bounds()
	if lo != 200 || hi != 250000 {
		t.Errorf("bounded numeric = [%d,%d], want [200,250000]", lo, hi)
	}
	lo, hi = s.Attr(3).Bounds()
	if lo != NegInf || hi != PosInf {
		t.Errorf("unbounded numeric = [%d,%d], want sentinels", lo, hi)
	}
}

func TestSchemaProject(t *testing.T) {
	s := mixedSchema(t)
	p, err := s.Project([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims() != 2 || p.Attr(0).Name != "Make" || p.Attr(1).Name != "Price" {
		t.Fatalf("projection wrong: %s", p)
	}
	if _, err := s.Project([]int{5}); err == nil {
		t.Error("out-of-range projection succeeded")
	}
	// A projection that breaks the categorical-prefix rule must fail.
	if _, err := s.Project([]int{2, 0}); err == nil {
		t.Error("numeric-before-categorical projection succeeded")
	}
}

func TestSchemaString(t *testing.T) {
	got := mixedSchema(t).String()
	want := "Make:cat(85), Body:cat(7), Price:num, Year:num"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestAttrsCopy(t *testing.T) {
	s := mixedSchema(t)
	attrs := s.Attrs()
	attrs[0].Name = "mutated"
	if s.Attr(0).Name != "Make" {
		t.Error("Attrs returned a live reference to internal state")
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Error("Kind.String wrong")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Error("unknown Kind should render its number")
	}
}
