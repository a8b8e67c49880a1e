// Package dataspace models the data space of a hidden database: attribute
// schemas, points/tuples, form queries (one predicate per attribute), and the
// geometric operations (2-way and 3-way splits, refinement) that the crawling
// algorithms of Sheng et al. (VLDB 2012) are built on.
//
// A data space D has d attributes A1..Ad. Numeric attributes have a totally
// ordered integer domain and accept range predicates Ai ∈ [x, y]; categorical
// attributes have a finite unordered domain {1..Ui} and accept equality
// predicates Ai = x or the wildcard Ai = ⋆.
package dataspace

import (
	"fmt"
	"math"
	"strings"
)

// Kind distinguishes numeric from categorical attributes.
type Kind uint8

const (
	// Numeric attributes have a totally ordered integer domain and accept
	// range predicates.
	Numeric Kind = iota
	// Categorical attributes have a finite unordered domain {1..U} and
	// accept equality-or-wildcard predicates.
	Categorical
)

// String returns "numeric" or "categorical".
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Sentinel extent bounds for numeric attributes whose conceptual domain is
// all integers. They leave one unit of slack so that x-1 and x+1 never
// overflow for any in-domain value x.
const (
	NegInf int64 = math.MinInt64 + 1
	PosInf int64 = math.MaxInt64 - 1
)

// Attribute describes one dimension of the data space.
type Attribute struct {
	// Name is a human-readable label, e.g. "Price".
	Name string
	// Kind says whether the attribute is Numeric or Categorical.
	Kind Kind
	// DomainSize is the number of distinct values U of a categorical
	// attribute; its domain is the integers 1..DomainSize. Zero for
	// numeric attributes.
	DomainSize int
	// Min and Max optionally bound a numeric attribute's domain. They are
	// advisory: rank-shrink never needs them, but the binary-shrink
	// baseline requires finite bounds to pick split midpoints. When both
	// are zero the domain is treated as (NegInf, PosInf).
	Min, Max int64
}

// Bounds returns the effective numeric extent of the attribute,
// (NegInf, PosInf) when no explicit bounds were declared.
func (a Attribute) Bounds() (lo, hi int64) {
	if a.Kind == Categorical {
		return 1, int64(a.DomainSize)
	}
	if a.Min == 0 && a.Max == 0 {
		return NegInf, PosInf
	}
	return a.Min, a.Max
}

// Schema is an ordered list of attributes defining a data space. The order
// matters: the algorithms in the paper consume attributes left to right
// (categorical attributes first in a mixed space).
type Schema struct {
	attrs []Attribute
}

// NewSchema validates the attribute list and returns a schema. In a mixed
// space all categorical attributes must precede all numeric ones, matching
// the paper's convention (A1..Acat categorical, the rest numeric).
func NewSchema(attrs []Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataspace: schema needs at least one attribute")
	}
	seenNumeric := false
	names := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataspace: attribute %d has empty name", i)
		}
		if names[a.Name] {
			return nil, fmt.Errorf("dataspace: duplicate attribute name %q", a.Name)
		}
		names[a.Name] = true
		switch a.Kind {
		case Categorical:
			if seenNumeric {
				return nil, fmt.Errorf("dataspace: categorical attribute %q after a numeric one; categorical attributes must come first", a.Name)
			}
			if a.DomainSize < 1 {
				return nil, fmt.Errorf("dataspace: categorical attribute %q needs DomainSize >= 1, got %d", a.Name, a.DomainSize)
			}
		case Numeric:
			seenNumeric = true
			if a.DomainSize != 0 {
				return nil, fmt.Errorf("dataspace: numeric attribute %q must not set DomainSize", a.Name)
			}
			if a.Min > a.Max {
				return nil, fmt.Errorf("dataspace: numeric attribute %q has Min %d > Max %d", a.Name, a.Min, a.Max)
			}
			if a.Min < NegInf || a.Max > PosInf {
				return nil, fmt.Errorf("dataspace: numeric attribute %q bounds exceed (NegInf, PosInf)", a.Name)
			}
		default:
			return nil, fmt.Errorf("dataspace: attribute %q has invalid kind %d", a.Name, a.Kind)
		}
	}
	cp := make([]Attribute, len(attrs))
	copy(cp, attrs)
	return &Schema{attrs: cp}, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(attrs []Attribute) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns the dimensionality d of the data space.
func (s *Schema) Dims() int { return len(s.attrs) }

// Attr returns the i-th attribute (0-based).
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	cp := make([]Attribute, len(s.attrs))
	copy(cp, s.attrs)
	return cp
}

// Cat returns the number of leading categorical attributes (the paper's
// "cat"). It is 0 for a purely numeric space and Dims() for a purely
// categorical one.
func (s *Schema) Cat() int {
	for i, a := range s.attrs {
		if a.Kind == Numeric {
			return i
		}
	}
	return len(s.attrs)
}

// IsNumeric reports whether every attribute is numeric.
func (s *Schema) IsNumeric() bool { return s.Cat() == 0 }

// IsCategorical reports whether every attribute is categorical.
func (s *Schema) IsCategorical() bool { return s.Cat() == s.Dims() }

// Project returns a new schema keeping only the attributes at the given
// positions, in the given order. The positions must describe a valid
// categorical-prefix ordering.
func (s *Schema) Project(cols []int) (*Schema, error) {
	attrs := make([]Attribute, 0, len(cols))
	for _, c := range cols {
		if c < 0 || c >= len(s.attrs) {
			return nil, fmt.Errorf("dataspace: project column %d out of range [0,%d)", c, len(s.attrs))
		}
		attrs = append(attrs, s.attrs[c])
	}
	return NewSchema(attrs)
}

// String renders the schema compactly, e.g.
// "Make:cat(85), Price:num, Mileage:num".
func (s *Schema) String() string {
	var b strings.Builder
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		if a.Kind == Categorical {
			fmt.Fprintf(&b, ":cat(%d)", a.DomainSize)
		} else {
			b.WriteString(":num")
		}
	}
	return b.String()
}
