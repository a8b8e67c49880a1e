package dataspace

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is one row of the hidden database: its value on every attribute of
// the schema, in schema order. The database is a bag, so identical tuples
// may occur many times.
type Tuple []int64

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	cp := make(Tuple, len(t))
	copy(cp, t)
	return cp
}

// Equal reports whether two tuples agree on every attribute.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; it exists so bags can be sorted
// canonically for multiset comparison.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		switch {
		case t[i] < u[i]:
			return -1
		case t[i] > u[i]:
			return 1
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Validate checks that the tuple is well-formed for the schema: correct
// arity, and categorical values inside their domains.
func (t Tuple) Validate(s *Schema) error {
	if len(t) != s.Dims() {
		return fmt.Errorf("dataspace: tuple arity %d != schema dims %d", len(t), s.Dims())
	}
	for i, v := range t {
		a := s.Attr(i)
		if a.Kind == Categorical {
			if v < 1 || v > int64(a.DomainSize) {
				return fmt.Errorf("dataspace: tuple value %d for categorical %q outside [1,%d]", v, a.Name, a.DomainSize)
			}
		} else if v < NegInf || v > PosInf {
			return fmt.Errorf("dataspace: tuple value %d for numeric %q outside (NegInf, PosInf)", v, a.Name)
		}
	}
	return nil
}

// Bag is a multiset of tuples. The zero value is an empty bag.
type Bag []Tuple

// Clone deep-copies the bag.
func (b Bag) Clone() Bag {
	cp := make(Bag, len(b))
	for i, t := range b {
		cp[i] = t.Clone()
	}
	return cp
}

// SortCanonical sorts the bag lexicographically in place and returns it.
func (b Bag) SortCanonical() Bag {
	sort.Slice(b, func(i, j int) bool { return b[i].Compare(b[j]) < 0 })
	return b
}

// EqualMultiset reports whether two bags contain exactly the same tuples
// with the same multiplicities, regardless of order.
func (b Bag) EqualMultiset(o Bag) bool {
	if len(b) != len(o) {
		return false
	}
	x := b.Clone().SortCanonical()
	y := o.Clone().SortCanonical()
	for i := range x {
		if !x[i].Equal(y[i]) {
			return false
		}
	}
	return true
}

// MaxMultiplicity returns the largest number of identical tuples in the bag.
// Problem 1 is solvable iff MaxMultiplicity <= k.
func (b Bag) MaxMultiplicity() int {
	if len(b) == 0 {
		return 0
	}
	s := b.Clone().SortCanonical()
	best, run := 1, 1
	for i := 1; i < len(s); i++ {
		if s[i].Equal(s[i-1]) {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 1
		}
	}
	return best
}

// DistinctValues returns, per attribute, the number of distinct values that
// occur in the bag. Used to pick the "top-d attributes by distinct count"
// workloads of Figures 10b and 11b.
func (b Bag) DistinctValues(dims int) []int {
	counts := make([]int, dims)
	for i := 0; i < dims; i++ {
		seen := make(map[int64]struct{})
		for _, t := range b {
			seen[t[i]] = struct{}{}
		}
		counts[i] = len(seen)
	}
	return counts
}

// Project returns a new bag keeping only the given columns of every tuple.
func (b Bag) Project(cols []int) Bag {
	out := make(Bag, len(b))
	for i, t := range b {
		nt := make(Tuple, len(cols))
		for j, c := range cols {
			nt[j] = t[c]
		}
		out[i] = nt
	}
	return out
}
