package dataspace

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Pred is the predicate a query places on one attribute.
//
// For a numeric attribute the predicate is the inclusive range [Lo, Hi].
// For a categorical attribute it is either the wildcard (Wild=true,
// matching every domain value) or the equality Ai = Value.
type Pred struct {
	// Lo, Hi bound a numeric range predicate (inclusive).
	Lo, Hi int64
	// Wild marks a categorical wildcard predicate (Ai = ⋆).
	Wild bool
	// Value is the constant of a categorical equality predicate.
	Value int64
}

// Query is a conjunction of one predicate per attribute — exactly the kind
// of request a hidden database's search form accepts. A numeric query is
// also a d-dimensional axis-parallel rectangle, which is how the splitting
// algorithms treat it.
//
// Queries are immutable: every refinement operation returns a new Query.
type Query struct {
	schema *Schema
	preds  []Pred
}

// UniverseQuery returns the query covering the whole data space: wildcard on
// every categorical attribute and (NegInf, PosInf) on every numeric one.
func UniverseQuery(s *Schema) Query {
	preds := make([]Pred, s.Dims())
	for i := range preds {
		a := s.Attr(i)
		if a.Kind == Categorical {
			preds[i] = Pred{Wild: true}
		} else {
			preds[i] = Pred{Lo: NegInf, Hi: PosInf}
		}
	}
	return Query{schema: s, preds: preds}
}

// NewQuery builds a query from explicit predicates after validating them
// against the schema.
func NewQuery(s *Schema, preds []Pred) (Query, error) {
	if len(preds) != s.Dims() {
		return Query{}, fmt.Errorf("dataspace: %d predicates for %d attributes", len(preds), s.Dims())
	}
	cp := make([]Pred, len(preds))
	copy(cp, preds)
	q := Query{schema: s, preds: cp}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// Validate checks the query's predicates against its schema.
func (q Query) Validate() error {
	if q.schema == nil {
		return fmt.Errorf("dataspace: query has no schema")
	}
	for i, p := range q.preds {
		a := q.schema.Attr(i)
		switch a.Kind {
		case Categorical:
			if !p.Wild && (p.Value < 1 || p.Value > int64(a.DomainSize)) {
				return fmt.Errorf("dataspace: predicate %s=%d outside domain [1,%d]", a.Name, p.Value, a.DomainSize)
			}
		case Numeric:
			if p.Wild {
				return fmt.Errorf("dataspace: wildcard predicate on numeric attribute %q", a.Name)
			}
			if p.Lo > p.Hi {
				return fmt.Errorf("dataspace: empty range [%d,%d] on %q", p.Lo, p.Hi, a.Name)
			}
			if p.Lo < NegInf || p.Hi > PosInf {
				return fmt.Errorf("dataspace: range on %q exceeds (NegInf, PosInf)", a.Name)
			}
		}
	}
	return nil
}

// Schema returns the schema the query is over.
func (q Query) Schema() *Schema { return q.schema }

// Pred returns the predicate on attribute i.
func (q Query) Pred(i int) Pred { return q.preds[i] }

// Preds returns the query's predicates, aligned with the schema's
// attributes. The slice is shared with the query — callers must treat it as
// read-only. It exists so hot evaluation loops (the index engine's columnar
// residual check) can avoid a per-attribute Pred copy.
func (q Query) Preds() []Pred { return q.preds }

// Covers reports whether the tuple satisfies every predicate of the query.
func (q Query) Covers(t Tuple) bool {
	for i, p := range q.preds {
		v := t[i]
		if q.schema.attrs[i].Kind == Categorical {
			if !p.Wild && v != p.Value {
				return false
			}
		} else if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// Extent returns the numeric range [lo, hi] of the query on numeric
// attribute i.
func (q Query) Extent(i int) (lo, hi int64) {
	p := q.preds[i]
	return p.Lo, p.Hi
}

// Exhausted reports whether attribute i's extent has shrunk to a single
// value (numeric) or is pinned to a constant (categorical).
func (q Query) Exhausted(i int) bool {
	p := q.preds[i]
	if q.schema.attrs[i].Kind == Categorical {
		return !p.Wild
	}
	return p.Lo == p.Hi
}

// WithRange returns a copy of the query whose predicate on numeric attribute
// i is replaced by [lo, hi].
func (q Query) WithRange(i int, lo, hi int64) Query {
	preds := make([]Pred, len(q.preds))
	copy(preds, q.preds)
	preds[i] = Pred{Lo: lo, Hi: hi}
	return Query{schema: q.schema, preds: preds}
}

// WithValue returns a copy of the query whose predicate on categorical
// attribute i is replaced by the equality Ai = v.
func (q Query) WithValue(i int, v int64) Query {
	preds := make([]Pred, len(q.preds))
	copy(preds, q.preds)
	preds[i] = Pred{Value: v}
	return Query{schema: q.schema, preds: preds}
}

// Split2 performs the paper's 2-way split of the query's rectangle on
// numeric attribute i at value x: the left part gets extent [lo, x-1] and
// the right part [x, hi]. x must lie in (lo, hi]; otherwise the left part
// would be empty.
func (q Query) Split2(i int, x int64) (left, right Query, err error) {
	lo, hi := q.Extent(i)
	if x <= lo || x > hi {
		return Query{}, Query{}, fmt.Errorf("dataspace: 2-way split at %d outside (%d,%d]", x, lo, hi)
	}
	return q.WithRange(i, lo, x-1), q.WithRange(i, x, hi), nil
}

// Split3 performs the paper's 3-way split on numeric attribute i at value x:
// left [lo, x-1], middle [x, x], right [x+1, hi]. When x coincides with an
// endpoint the corresponding side has an empty extent and hasLeft/hasRight
// is false (the paper "discards" such rectangles).
func (q Query) Split3(i int, x int64) (left, mid, right Query, hasLeft, hasRight bool, err error) {
	lo, hi := q.Extent(i)
	if x < lo || x > hi {
		return Query{}, Query{}, Query{}, false, false, fmt.Errorf("dataspace: 3-way split at %d outside [%d,%d]", x, lo, hi)
	}
	mid = q.WithRange(i, x, x)
	if x > lo {
		left = q.WithRange(i, lo, x-1)
		hasLeft = true
	}
	if x < hi {
		right = q.WithRange(i, x+1, hi)
		hasRight = true
	}
	return left, mid, right, hasLeft, hasRight, nil
}

// Key returns a canonical string for the query, usable as a cache key. Two
// queries over the same schema have equal keys iff they specify identical
// predicates.
func (q Query) Key() string {
	var b strings.Builder
	b.Grow(16 * len(q.preds))
	for i, p := range q.preds {
		if i > 0 {
			b.WriteByte('|')
		}
		if q.schema.attrs[i].Kind == Categorical {
			if p.Wild {
				b.WriteByte('*')
			} else {
				b.WriteString(strconv.FormatInt(p.Value, 10))
			}
		} else {
			b.WriteString(strconv.FormatInt(p.Lo, 10))
			b.WriteByte(':')
			b.WriteString(strconv.FormatInt(p.Hi, 10))
		}
	}
	return b.String()
}

// Key-encoding tags. Each predicate contributes a tag byte followed by its
// fixed-width operands, so two queries over the same schema produce equal
// encodings iff their predicates are identical.
const (
	keyWild  = 0x00 // categorical wildcard, no operands
	keyValue = 0x01 // categorical equality, 8-byte value
	keyRange = 0x02 // numeric range, 8-byte lo + 8-byte hi
)

// AppendKey appends a compact binary canonical key for the query to dst and
// returns the extended slice. It is the allocation-free counterpart of Key:
// with a reused buffer it performs no allocation, which is what the
// zero-copy memo lookups of memo.Cache.Probe rely on. Two queries over the
// same schema have equal keys iff they specify identical predicates.
func (q Query) AppendKey(dst []byte) []byte {
	for i, p := range q.preds {
		if q.schema.attrs[i].Kind == Categorical {
			if p.Wild {
				dst = append(dst, keyWild)
			} else {
				dst = append(dst, keyValue)
				dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Value))
			}
		} else {
			dst = append(dst, keyRange)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Lo))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Hi))
		}
	}
	return dst
}

// String renders the query with attribute names, e.g.
// "Make=3, Body=⋆, Price∈[0,5000]".
func (q Query) String() string {
	var b strings.Builder
	for i, p := range q.preds {
		if i > 0 {
			b.WriteString(", ")
		}
		a := q.schema.Attr(i)
		if a.Kind == Categorical {
			if p.Wild {
				b.WriteString(a.Name + "=⋆")
			} else {
				fmt.Fprintf(&b, "%s=%d", a.Name, p.Value)
			}
		} else {
			lo, hi := "-inf", "+inf"
			if p.Lo != NegInf {
				lo = strconv.FormatInt(p.Lo, 10)
			}
			if p.Hi != PosInf {
				hi = strconv.FormatInt(p.Hi, 10)
			}
			fmt.Fprintf(&b, "%s∈[%s,%s]", a.Name, lo, hi)
		}
	}
	return b.String()
}
