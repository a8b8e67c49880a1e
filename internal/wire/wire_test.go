package wire

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

func testSchema(t *testing.T) *dataspace.Schema {
	t.Helper()
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "Make", Kind: dataspace.Categorical, DomainSize: 85},
		{Name: "Price", Kind: dataspace.Numeric, Min: 200, Max: 250000},
		{Name: "Year", Kind: dataspace.Numeric},
	})
}

func TestSchemaRoundTrip(t *testing.T) {
	sch := testSchema(t)
	msg := EncodeSchema(sch, 1000)
	// Through JSON, as the HTTP path does.
	raw, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var back SchemaMsg
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, k, err := DecodeSchema(back)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1000 {
		t.Fatalf("k = %d, want 1000", k)
	}
	if got.String() != sch.String() {
		t.Fatalf("schema round trip: %s != %s", got, sch)
	}
	if got.Attr(1).Min != 200 || got.Attr(1).Max != 250000 {
		t.Fatal("bounds lost in round trip")
	}
	if got.Attr(2).Min != 0 || got.Attr(2).Max != 0 {
		t.Fatal("unbounded attribute gained bounds")
	}
}

func TestDecodeSchemaErrors(t *testing.T) {
	if _, _, err := DecodeSchema(SchemaMsg{
		K: 10, Attributes: []Attribute{{Name: "A", Kind: "fuzzy"}},
	}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, _, err := DecodeSchema(SchemaMsg{
		K: 0, Attributes: []Attribute{{Name: "A", Kind: "numeric"}},
	}); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, _, err := DecodeSchema(SchemaMsg{
		K: 5, Attributes: []Attribute{{Name: "C", Kind: "categorical"}},
	}); err == nil {
		t.Error("categorical without domain accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	sch := testSchema(t)
	queries := []dataspace.Query{
		dataspace.UniverseQuery(sch),
		dataspace.UniverseQuery(sch).WithValue(0, 3),
		dataspace.UniverseQuery(sch).WithRange(1, 1000, 2000),
		dataspace.UniverseQuery(sch).WithValue(0, 85).WithRange(1, 200, 200).WithRange(2, -5, 5),
	}
	for _, q := range queries {
		raw, err := json.Marshal(EncodeQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		var msg QueryMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeQuery(sch, msg)
		if err != nil {
			t.Fatalf("decode %s: %v", q, err)
		}
		if got.Key() != q.Key() {
			t.Fatalf("query round trip: %s != %s", got, q)
		}
	}
}

func TestDecodeQueryErrors(t *testing.T) {
	sch := testSchema(t)
	if _, err := DecodeQuery(sch, QueryMsg{Preds: []Pred{{Wild: true}}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	three := func(p Pred) QueryMsg {
		return QueryMsg{Preds: []Pred{p, {}, {}}}
	}
	if _, err := DecodeQuery(sch, three(Pred{})); err == nil {
		t.Error("categorical predicate with neither wild nor value accepted")
	}
	v := int64(3)
	if _, err := DecodeQuery(sch, three(Pred{Wild: true, Value: &v})); err == nil {
		t.Error("categorical predicate with both wild and value accepted")
	}
	lo, hi := int64(10), int64(5)
	bad := QueryMsg{Preds: []Pred{{Wild: true}, {Lo: &lo, Hi: &hi}, {}}}
	if _, err := DecodeQuery(sch, bad); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	sch := testSchema(t)
	res := hiddendb.Result{
		Overflow: true,
		Tuples: dataspace.Bag{
			{1, 200, -100},
			{85, 250000, 100},
		},
	}
	raw, err := json.Marshal(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	var msg ResultMsg
	if err := json.Unmarshal(raw, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(sch, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != res.Overflow || !got.Tuples.EqualMultiset(res.Tuples) {
		t.Fatal("result round trip changed content")
	}
}

func TestDecodeResultValidates(t *testing.T) {
	sch := testSchema(t)
	bad := ResultMsg{Tuples: [][]int64{{99999, 0, 0}}} // Make out of domain
	if _, err := DecodeResult(sch, bad); err == nil {
		t.Error("out-of-domain tuple accepted")
	}
	badArity := ResultMsg{Tuples: [][]int64{{1, 2}}}
	if _, err := DecodeResult(sch, badArity); err == nil {
		t.Error("wrong-arity tuple accepted")
	}
}

func TestEncodeResultClonesTuples(t *testing.T) {
	sch := testSchema(t)
	orig := dataspace.Tuple{1, 300, 0}
	msg := EncodeResult(hiddendb.Result{Tuples: dataspace.Bag{orig}})
	msg.Tuples[0][0] = 42
	if orig[0] != 1 {
		t.Error("EncodeResult shares tuple storage")
	}
	_ = sch
}

// Property: arbitrary in-domain queries survive the wire round trip
// bit-for-bit (by canonical key).
func TestQueryRoundTripProperty(t *testing.T) {
	sch := testSchema(t)
	f := func(makeVal uint8, wild bool, lo, hi int32) bool {
		q := dataspace.UniverseQuery(sch)
		if !wild {
			q = q.WithValue(0, int64(makeVal%85)+1)
		}
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		q = q.WithRange(2, l, h)
		raw, err := json.Marshal(EncodeQuery(q))
		if err != nil {
			return false
		}
		var msg QueryMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			return false
		}
		got, err := DecodeQuery(sch, msg)
		return err == nil && got.Key() == q.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fuzzQueryMsg builds a QueryMsg from fuzz input: arity predicates, pred i
// shaped by the bits of shapes[i] (1 wild, 2 value, 4 lo, 8 hi) and its set
// fields filled from successive little-endian int64s of nums (zero once
// nums runs out). Every hostile shape is reachable: wrong arity, both or
// neither of wild/value, lo > hi, int64 extremes.
func fuzzQueryMsg(arity uint8, shapes, nums []byte) QueryMsg {
	next := func() *int64 {
		var v int64
		if len(nums) >= 8 {
			v = int64(binary.LittleEndian.Uint64(nums))
			nums = nums[8:]
		}
		return &v
	}
	msg := QueryMsg{Preds: make([]Pred, arity%8)}
	for i := range msg.Preds {
		var shape byte
		if i < len(shapes) {
			shape = shapes[i]
		}
		p := &msg.Preds[i]
		p.Wild = shape&1 != 0
		if shape&2 != 0 {
			p.Value = next()
		}
		if shape&4 != 0 {
			p.Lo = next()
		}
		if shape&8 != 0 {
			p.Hi = next()
		}
	}
	return msg
}

func int64s(vs ...int64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// queryShapes are the fuzzQueryMsg arguments FuzzDecodeQuery is seeded
// with, and whose JSON FuzzParseQuery is.
var queryShapes = []struct {
	arity        uint8
	shapes, nums []byte
}{
	{3, []byte{1, 0, 0}, nil},                                                 // universe
	{3, []byte{2, 12, 4}, int64s(2, -5, 9, 0)},                                // pin, closed and half-open ranges
	{2, []byte{1, 0}, nil},                                                    // too few predicates
	{4, []byte{1, 0, 0, 0}, nil},                                              // too many
	{3, []byte{3, 0, 0}, int64s(1)},                                           // both wild and value
	{3, []byte{0, 0, 0}, nil},                                                 // neither
	{3, []byte{2, 0, 0}, int64s(5)},                                           // value outside the domain
	{3, []byte{1, 12, 12}, int64s(9, 3, 100, -100)},                           // lo > hi
	{3, []byte{1, 12, 12}, int64s(math.MinInt64, math.MaxInt64, 0, 0)},        // int64 extremes
	{3, []byte{2, 4, 8}, int64s(math.MinInt64, math.MinInt64, math.MaxInt64)}, // extreme pin and bounds
	{3, []byte{1, 13, 14}, int64s(0, 1, 2, 3)},                                // wild or value on a numeric
	{3, []byte{13, 0, 0}, int64s(0, 1)},                                       // lo/hi on a categorical
}

// FuzzDecodeQuery feeds DecodeQuery hostile QueryMsg values directly. Each
// must yield an error or a valid query that round-trips through
// EncodeQuery — never a panic.
func FuzzDecodeQuery(f *testing.F) {
	for _, s := range queryShapes {
		f.Add(s.arity, s.shapes, s.nums)
	}
	s := fuzzSchema()
	f.Fuzz(func(t *testing.T, arity uint8, shapes, nums []byte) {
		q, err := DecodeQuery(s, fuzzQueryMsg(arity, shapes, nums))
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("decoded an invalid query: %v", err)
		}
		back, err := DecodeQuery(s, EncodeQuery(q))
		if err != nil {
			t.Fatalf("re-decoding the encoded query: %v", err)
		}
		if back.Key() != q.Key() {
			t.Fatalf("round trip changed the query: %s -> %s", q, back)
		}
	})
}
