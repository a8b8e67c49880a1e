package dataspace

import (
	"math"
	"testing"
	"testing/quick"
)

func numSchema2(t *testing.T) *Schema {
	t.Helper()
	return MustSchema([]Attribute{
		{Name: "X", Kind: Numeric},
		{Name: "Y", Kind: Numeric},
	})
}

func TestUniverseQueryCoversEverything(t *testing.T) {
	s := mixedSchema(t)
	q := UniverseQuery(s)
	tuples := []Tuple{
		{1, 1, 200, -999999},
		{85, 7, 250000, 999999},
		{42, 3, 1000, 0},
	}
	for _, tu := range tuples {
		if !q.Covers(tu) {
			t.Errorf("universe does not cover %v", tu)
		}
	}
}

func TestNewQueryValidation(t *testing.T) {
	s := mixedSchema(t)
	if _, err := NewQuery(s, []Pred{{Wild: true}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad := []Pred{
		{Value: 99}, // outside Make's domain [1,85]? no: 99 > 85
		{Wild: true},
		{Lo: 0, Hi: 10},
		{Lo: 0, Hi: 10},
	}
	bad[0].Value = 99
	if _, err := NewQuery(s, bad); err == nil {
		t.Error("out-of-domain categorical value accepted")
	}
	badRange := []Pred{
		{Value: 1}, {Wild: true}, {Lo: 10, Hi: 5}, {Lo: 0, Hi: 0},
	}
	if _, err := NewQuery(s, badRange); err == nil {
		t.Error("empty numeric range accepted")
	}
	wildNum := []Pred{
		{Value: 1}, {Wild: true}, {Wild: true}, {Lo: 0, Hi: 0},
	}
	if _, err := NewQuery(s, wildNum); err == nil {
		t.Error("wildcard on numeric attribute accepted")
	}
}

func TestCovers(t *testing.T) {
	s := mixedSchema(t)
	q := UniverseQuery(s).WithValue(0, 5).WithRange(2, 1000, 2000)
	cases := []struct {
		tu   Tuple
		want bool
	}{
		{Tuple{5, 1, 1500, 0}, true},
		{Tuple{5, 7, 1000, -100}, true},
		{Tuple{5, 7, 2000, 100}, true},
		{Tuple{4, 1, 1500, 0}, false}, // wrong make
		{Tuple{5, 1, 999, 0}, false},  // below range
		{Tuple{5, 1, 2001, 0}, false}, // above range
	}
	for _, c := range cases {
		if got := q.Covers(c.tu); got != c.want {
			t.Errorf("Covers(%v) = %v, want %v", c.tu, got, c.want)
		}
	}
}

func TestSplit2Partition(t *testing.T) {
	s := numSchema2(t)
	q := UniverseQuery(s).WithRange(0, 0, 100)
	left, right, err := q.Split2(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := left.Extent(0)
	if lo != 0 || hi != 39 {
		t.Errorf("left extent [%d,%d], want [0,39]", lo, hi)
	}
	lo, hi = right.Extent(0)
	if lo != 40 || hi != 100 {
		t.Errorf("right extent [%d,%d], want [40,100]", lo, hi)
	}
	// Split boundaries are rejected outside (lo, hi].
	if _, _, err := q.Split2(0, 0); err == nil {
		t.Error("split at lo accepted (left would be empty)")
	}
	if _, _, err := q.Split2(0, 101); err == nil {
		t.Error("split above hi accepted")
	}
}

func TestSplit3PartitionAndDegeneration(t *testing.T) {
	s := numSchema2(t)
	q := UniverseQuery(s).WithRange(0, 10, 20)

	left, mid, right, hasL, hasR, err := q.Split3(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !hasL || !hasR {
		t.Fatal("interior 3-way split lost a side")
	}
	if lo, hi := mid.Extent(0); lo != 15 || hi != 15 {
		t.Errorf("mid extent [%d,%d], want [15,15]", lo, hi)
	}
	if !mid.Exhausted(0) {
		t.Error("mid should exhaust the split attribute")
	}
	if lo, hi := left.Extent(0); lo != 10 || hi != 14 {
		t.Errorf("left extent [%d,%d], want [10,14]", lo, hi)
	}
	if lo, hi := right.Extent(0); lo != 16 || hi != 20 {
		t.Errorf("right extent [%d,%d], want [16,20]", lo, hi)
	}

	// Split at the lower endpoint: no left piece.
	_, _, _, hasL, hasR, err = q.Split3(0, 10)
	if err != nil || hasL || !hasR {
		t.Errorf("split at lo: hasL=%v hasR=%v err=%v, want false true nil", hasL, hasR, err)
	}
	// Split at the upper endpoint: no right piece.
	_, _, _, hasL, hasR, err = q.Split3(0, 20)
	if err != nil || !hasL || hasR {
		t.Errorf("split at hi: hasL=%v hasR=%v err=%v, want true false nil", hasL, hasR, err)
	}
	// Out of range.
	if _, _, _, _, _, err := q.Split3(0, 9); err == nil {
		t.Error("3-way split below lo accepted")
	}
}

// TestSplitsPartitionProperty: for random rectangles and split points, every
// covered tuple lands in exactly one piece — the invariant the crawling
// algorithms' correctness rests on.
func TestSplitsPartitionProperty(t *testing.T) {
	s := numSchema2(t)
	f := func(loRaw, spanRaw, xRaw, v0, v1 int16) bool {
		lo := int64(loRaw)
		hi := lo + int64(spanRaw&0x3FF) + 1 // non-degenerate extent
		q := UniverseQuery(s).WithRange(0, lo, hi)
		x := lo + 1 + (int64(xRaw&0x7FFF) % (hi - lo)) // in (lo, hi]
		tu := Tuple{int64(v0), int64(v1)}

		left, right, err := q.Split2(0, x)
		if err != nil {
			return false
		}
		inQ := q.Covers(tu)
		inL, inR := left.Covers(tu), right.Covers(tu)
		if inQ != (inL || inR) || (inL && inR) {
			return false
		}

		l3, m3, r3, hasL, hasR, err := q.Split3(0, x)
		if err != nil {
			return false
		}
		count := 0
		if hasL && l3.Covers(tu) {
			count++
		}
		if m3.Covers(tu) {
			count++
		}
		if hasR && r3.Covers(tu) {
			count++
		}
		want := 0
		if inQ {
			want = 1
		}
		return count == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustedAndIsPoint(t *testing.T) {
	s := mixedSchema(t)
	q := UniverseQuery(s)
	if q.Exhausted(0) || q.Exhausted(2) {
		t.Error("universe claims exhausted attributes")
	}
	// A fully pinned query is a point: every attribute is exhausted.
	q = q.WithValue(0, 3).WithValue(1, 2).WithRange(2, 7, 7).WithRange(3, -1, -1)
	for i := 0; i < 4; i++ {
		if !q.Exhausted(i) {
			t.Errorf("attribute %d not exhausted", i)
		}
	}
}

func TestQueryKeyCanonical(t *testing.T) {
	s := mixedSchema(t)
	a := UniverseQuery(s).WithValue(0, 3).WithRange(2, 10, 20)
	b := UniverseQuery(s).WithRange(2, 10, 20).WithValue(0, 3)
	if a.Key() != b.Key() {
		t.Error("equal queries have different keys")
	}
	c := a.WithValue(0, 4)
	if a.Key() == c.Key() {
		t.Error("different queries share a key")
	}
}

func TestQueryAppendKeyCanonical(t *testing.T) {
	s := mixedSchema(t)
	a := UniverseQuery(s).WithValue(0, 3).WithRange(2, 10, 20)
	b := UniverseQuery(s).WithRange(2, 10, 20).WithValue(0, 3)
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Error("equal queries have different binary keys")
	}
	// The binary key must discriminate exactly as the string key does,
	// including wildcard-vs-value and boundary shifts on either range end.
	variants := []Query{
		a,
		a.WithValue(0, 4),
		UniverseQuery(s).WithRange(2, 10, 20), // wildcard instead of Make=3
		a.WithRange(2, 10, 21),
		a.WithRange(2, 9, 20),
		a.WithRange(3, 0, 0),
		a.WithValue(1, 1),
	}
	for i, x := range variants {
		for j, y := range variants {
			sameBinary := string(x.AppendKey(nil)) == string(y.AppendKey(nil))
			sameString := x.Key() == y.Key()
			if sameBinary != sameString {
				t.Errorf("variants %d,%d: binary key equality %v, string key equality %v",
					i, j, sameBinary, sameString)
			}
		}
	}
	// Appending into a reused buffer must match a fresh encoding.
	buf := make([]byte, 0, 64)
	buf = append(buf[:0], 'x', 'y')
	if got := string(a.AppendKey(buf)[2:]); got != string(a.AppendKey(nil)) {
		t.Error("AppendKey into a prefixed buffer diverges from a fresh encoding")
	}
}

func TestQueryString(t *testing.T) {
	s := mixedSchema(t)
	q := UniverseQuery(s).WithValue(0, 3).WithRange(2, 100, 200)
	want := "Make=3, Body=⋆, Price∈[100,200], Year∈[-inf,+inf]"
	if got := q.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSentinelsLeaveOverflowSlack(t *testing.T) {
	// NegInf-1 and PosInf+1 must not wrap: the splits compute x±1.
	if NegInf-1 > NegInf || PosInf+1 < PosInf {
		t.Error("sentinels leave no arithmetic slack")
	}
	if NegInf != math.MinInt64+1 || PosInf != math.MaxInt64-1 {
		t.Error("sentinel values changed; update the slack analysis")
	}
}
