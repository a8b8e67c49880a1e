package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// randSchema draws 1–6 attributes, categorical ones first.
func randSchema(rng *rand.Rand) *dataspace.Schema {
	dims := 1 + rng.IntN(6)
	cat := rng.IntN(dims + 1)
	attrs := make([]dataspace.Attribute, dims)
	for i := range attrs {
		attrs[i] = dataspace.Attribute{Name: string(rune('A' + i)), Kind: dataspace.Numeric}
		if i < cat {
			attrs[i] = dataspace.Attribute{Name: attrs[i].Name, Kind: dataspace.Categorical, DomainSize: 1 + rng.IntN(100)}
		}
	}
	return dataspace.MustSchema(attrs)
}

// randBound draws a numeric bound, favouring the edges of the data space.
func randBound(rng *rand.Rand) int64 {
	switch rng.IntN(6) {
	case 0:
		return dataspace.NegInf
	case 1:
		return dataspace.PosInf
	case 2:
		return 0
	case 3:
		return dataspace.NegInf + 1 + rng.Int64N(3)
	}
	return rng.Int64N(2_000_001) - 1_000_000
}

func randQuery(rng *rand.Rand, s *dataspace.Schema) dataspace.Query {
	preds := make([]dataspace.Pred, s.Dims())
	for i := range preds {
		a := s.Attr(i)
		if a.Kind == dataspace.Categorical {
			if rng.IntN(2) == 0 {
				preds[i] = dataspace.Pred{Wild: true}
			} else {
				preds[i] = dataspace.Pred{Value: 1 + rng.Int64N(int64(a.DomainSize))}
			}
			continue
		}
		lo, hi := randBound(rng), randBound(rng)
		if lo > hi {
			lo, hi = hi, lo
		}
		preds[i] = dataspace.Pred{Lo: lo, Hi: hi}
	}
	q, err := dataspace.NewQuery(s, preds)
	if err != nil {
		panic(err)
	}
	return q
}

// randResult draws a result of 0–40 tuples over dims attributes, with nil
// and empty tuples and the int64 extremes mixed in: the encoders must
// write whatever they are handed exactly as encoding/json would.
func randResult(rng *rand.Rand, dims int) hiddendb.Result {
	var r hiddendb.Result
	if rng.IntN(5) > 0 {
		r.Tuples = make(dataspace.Bag, rng.IntN(41))
	}
	for i := range r.Tuples {
		switch rng.IntN(20) {
		case 0:
			continue // nil tuple
		case 1:
			r.Tuples[i] = dataspace.Tuple{}
			continue
		}
		t := make(dataspace.Tuple, dims)
		for j := range t {
			switch rng.IntN(10) {
			case 0:
				t[j] = math.MinInt64
			case 1:
				t[j] = math.MaxInt64
			default:
				t[j] = rng.Int64N(1<<40) - 1<<39
			}
		}
		r.Tuples[i] = t
	}
	r.Overflow = rng.IntN(2) == 0
	return r
}

// randErrorString mixes HTML-sensitive characters, quotes, control
// characters, JavaScript line separators, multi-byte runes and invalid
// UTF-8.
func randErrorString(rng *rand.Rand) string {
	pieces := []string{"a", "Z", " ", "<", ">", "&", `"`, `\`, "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
		"\u00e9", "\U0001F600", "\u2028", "\u2029", "\ufffd", "\xff", "\xc3", "\xed\xa0\x80", "<script>", "quota"}
	var b strings.Builder
	for n := rng.IntN(12); n > 0; n-- {
		b.WriteString(pieces[rng.IntN(len(pieces))])
	}
	return b.String()
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendMatchesEncodingJSON pins the append encoders to encoding/json
// byte for byte: requests to json.Marshal (what clients send), answers to
// json.Encoder (what the server wrote, trailing newline included).
func TestAppendMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2026))
	for trial := 0; trial < 2000; trial++ {
		s := randSchema(rng)
		qs := make([]dataspace.Query, rng.IntN(8))
		for i := range qs {
			qs[i] = randQuery(rng, s)
		}
		for _, q := range qs {
			if got, want := AppendQuery(nil, q), marshal(t, EncodeQuery(q)); !bytes.Equal(got, want) {
				t.Fatalf("AppendQuery(%s)\n got %s\nwant %s", q, got, want)
			}
		}
		if got, want := AppendBatchRequest(nil, qs), marshal(t, EncodeBatchRequest(qs)); !bytes.Equal(got, want) {
			t.Fatalf("AppendBatchRequest\n got %s\nwant %s", got, want)
		}

		rs := make([]hiddendb.Result, rng.IntN(5))
		for i := range rs {
			rs[i] = randResult(rng, s.Dims())
		}
		for _, r := range rs {
			if got, want := AppendResult(nil, r), encode(t, EncodeResult(r)); !bytes.Equal(got, want) {
				t.Fatalf("AppendResult\n got %s\nwant %s", got, want)
			}
		}
		quota := rng.IntN(2) == 0
		serverErr := ""
		if rng.IntN(2) == 0 {
			serverErr = randErrorString(rng)
		}
		msg := EncodeBatchResponse(rs, quota)
		msg.Error = serverErr
		// Append after a prefix: the encoders must only ever append.
		got := AppendBatchResponse([]byte("prefix"), rs, quota, serverErr)
		if want := append([]byte("prefix"), encode(t, msg)...); !bytes.Equal(got, want) {
			t.Fatalf("AppendBatchResponse(error %q)\n got %s\nwant %s", serverErr, got, want)
		}
	}
}

// TestParseMatchesDecode round-trips random answers through the parsers
// and checks them against encoding/json plus the struct converters.
func TestParseMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 14))
	for trial := 0; trial < 500; trial++ {
		s := randSchema(rng)
		rs := make([]hiddendb.Result, rng.IntN(5))
		for i := range rs {
			rs[i] = validResult(rng, s)
		}
		for _, r := range rs {
			checkParseResult(t, s, AppendResult(nil, r))
		}
		serverErr := ""
		if rng.IntN(2) == 0 {
			serverErr = randErrorString(rng)
		}
		checkParseBatch(t, s, AppendBatchResponse(nil, rs, rng.IntN(2) == 0, serverErr))
	}
}

// validResult draws a result whose tuples validate against s.
func validResult(rng *rand.Rand, s *dataspace.Schema) hiddendb.Result {
	r := hiddendb.Result{Tuples: make(dataspace.Bag, rng.IntN(30)), Overflow: rng.IntN(2) == 0}
	for i := range r.Tuples {
		t := make(dataspace.Tuple, s.Dims())
		for j := range t {
			if a := s.Attr(j); a.Kind == dataspace.Categorical {
				t[j] = 1 + rng.Int64N(int64(a.DomainSize))
			} else {
				t[j] = randBound(rng)
			}
		}
		r.Tuples[i] = t
	}
	return r
}

// TestParsedTuplesAreCapped: every parsed tuple is a capped subslice of
// the answer's flat buffer, so appending to one never clobbers the next.
func TestParsedTuplesAreCapped(t *testing.T) {
	s := fuzzSchema()
	r, err := ParseResult(s, []byte(`{"tuples":[[1,2,3],[4,5,6]],"overflow":true}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range r.Tuples {
		if cap(tu) != len(tu) {
			t.Fatalf("tuple %d has cap %d, len %d", i, cap(tu), len(tu))
		}
	}
	_ = append(r.Tuples[0], 99)
	if r.Tuples[1][0] != 4 {
		t.Fatal("appending to tuple 0 overwrote tuple 1")
	}
}

// TestResultSizeMatchesResultMsg: ParseBatchResponse mirrors encoding/json's
// slice growth on a []hiddendb.Result while encoding/json grows a
// []ResultMsg. Equal element sizes give equal capacities, and capacity
// decides which stale elements a repeated "results" key exposes.
func TestResultSizeMatchesResultMsg(t *testing.T) {
	if a, b := reflect.TypeFor[hiddendb.Result]().Size(), reflect.TypeFor[ResultMsg]().Size(); a != b {
		t.Fatalf("sizeof hiddendb.Result = %d, sizeof ResultMsg = %d", a, b)
	}
}

// TestCodecAllocs: appending an answer into a warm buffer allocates
// nothing, and parsing one costs the same few allocations (the flat value
// buffer and the tuple headers) whatever its tuple count.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	s := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "A", Kind: dataspace.Categorical, DomainSize: 50},
		{Name: "B", Kind: dataspace.Categorical, DomainSize: 7},
		{Name: "C", Kind: dataspace.Numeric},
		{Name: "D", Kind: dataspace.Numeric},
		{Name: "E", Kind: dataspace.Numeric},
		{Name: "F", Kind: dataspace.Numeric},
	})
	rng := rand.New(rand.NewPCG(1, 2))
	var parseAllocs []float64
	for _, n := range []int{16, 256} {
		r := validResult(rng, s)
		r.Tuples = r.Tuples[:0]
		for len(r.Tuples) < n {
			r.Tuples = append(r.Tuples, validResult(rng, s).Tuples...)
		}
		r.Tuples = r.Tuples[:n]
		buf := AppendResult(nil, r)
		if a := testing.AllocsPerRun(100, func() { buf = AppendResult(buf[:0], r) }); a != 0 {
			t.Errorf("AppendResult(%d tuples) into a warm buffer: %v allocs, want 0", n, a)
		}
		a := testing.AllocsPerRun(100, func() {
			if _, err := ParseResult(s, buf); err != nil {
				t.Fatal(err)
			}
		})
		if a > 3 {
			t.Errorf("ParseResult(%d tuples): %v allocs, want ≤ 3", n, a)
		}
		parseAllocs = append(parseAllocs, a)
	}
	if parseAllocs[0] != parseAllocs[1] {
		t.Errorf("ParseResult allocs grow with the tuple count: %v", parseAllocs)
	}
}

func fuzzSchema() *dataspace.Schema {
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 4},
		{Name: "N", Kind: dataspace.Numeric},
		{Name: "M", Kind: dataspace.Numeric, Min: -100, Max: 100},
	})
}

// strict reports whether err is one of the parsers' two documented
// rejections of input encoding/json accepts, and the body bears it out.
func strict(err error, body []byte) bool {
	if errors.Is(err, errNullElement) {
		return bytes.Contains(body, []byte("null"))
	}
	if errors.Is(err, errTrailingData) {
		dec := json.NewDecoder(bytes.NewReader(body))
		var v json.RawMessage // any would reject numbers beyond float64
		if dec.Decode(&v) != nil {
			return false
		}
		return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
	}
	return false
}

func sameResult(a, b hiddendb.Result) bool {
	if a.Overflow != b.Overflow || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// checkParseResult is the differential oracle of FuzzParseResult:
// json.Decoder + DecodeResult is the reference.
func checkParseResult(t *testing.T, s *dataspace.Schema, body []byte) {
	t.Helper()
	var msg ResultMsg
	want, werr := hiddendb.Result{}, json.NewDecoder(bytes.NewReader(body)).Decode(&msg)
	if werr == nil {
		want, werr = DecodeResult(s, msg)
	}
	got, gerr := ParseResult(s, body)
	switch {
	case werr != nil:
		if gerr == nil {
			t.Fatalf("ParseResult accepted %q, which encoding/json rejects: %v", body, werr)
		}
	case gerr != nil:
		if !strict(gerr, body) {
			t.Fatalf("ParseResult rejected %q, which encoding/json accepts: %v", body, gerr)
		}
	case !sameResult(got, want):
		t.Fatalf("ParseResult(%q) = %v, encoding/json decodes %v", body, got, want)
	}
}

// checkParseBatch is the differential oracle of FuzzParseBatchResponse.
func checkParseBatch(t *testing.T, s *dataspace.Schema, body []byte) {
	t.Helper()
	var msg BatchResponse
	var want []hiddendb.Result
	var wantQuota bool
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&msg)
	if werr == nil {
		want, wantQuota, werr = DecodeBatchResponse(s, msg)
	}
	got, gotQuota, gotErr, gerr := ParseBatchResponse(s, body)
	switch {
	case werr != nil:
		if gerr == nil {
			t.Fatalf("ParseBatchResponse accepted %q, which encoding/json rejects: %v", body, werr)
		}
		return
	case gerr != nil:
		if !strict(gerr, body) {
			t.Fatalf("ParseBatchResponse rejected %q, which encoding/json accepts: %v", body, gerr)
		}
		return
	}
	if gotQuota != wantQuota || gotErr != msg.Error || len(got) != len(want) {
		t.Fatalf("ParseBatchResponse(%q) = %d results, quota %v, error %q; encoding/json decodes %d, %v, %q",
			body, len(got), gotQuota, gotErr, len(want), wantQuota, msg.Error)
	}
	for i := range got {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("ParseBatchResponse(%q) result %d = %v, encoding/json decodes %v", body, i, got[i], want[i])
		}
	}
}

// TestParseDepthLimit: an unknown field nested to encoding/json's limit
// parses, one level deeper fails, as encoding/json does. (Too large to
// seed the fuzzers with: mutating it stalls them.)
func TestParseDepthLimit(t *testing.T) {
	s := fuzzSchema()
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		body := []byte(`{"a":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"tuples":[]}`)
		checkParseResult(t, s, body)
		checkParseBatch(t, s, body)
		obj := []byte(`{"a":` + strings.Repeat(`{"b":`, depth) + "0" + strings.Repeat("}", depth) + `}`)
		checkParseResult(t, s, obj)
	}
	if _, err := ParseResult(s, []byte(`{"a":`+strings.Repeat("[", maxDepth)+strings.Repeat("]", maxDepth)+`}`)); err == nil {
		t.Fatal("nesting beyond encoding/json's limit accepted")
	}
}

// resultSeeds are answers the server writes plus the edge-case classes of
// the JSON grammar and of encoding/json's decoding rules.
func resultSeeds() []string {
	served := string(AppendResult(nil, hiddendb.Result{Tuples: dataspace.Bag{{1, 5, -7}, {4, -9000000000, 100}}, Overflow: true}))
	seeds := []string{
		served,
		string(AppendResult(nil, hiddendb.Result{})),
		`{"overflow":true,"tuples":[[1,2,3]]}`,
		" \t\r\n{ \"tuples\" : [ [ 1 , 2 , 3 ] ] , \"overflow\" : false } \n",
		`{"tuples":[[1,2,3]]}`,
		`{"TUPLES":[[1,2,3]],"OverFlow":true}`,
		"{\"tuple\u017f\":[[1,2,3]]}",
		`{"tuples\u0000":[[1,2,3]]}`,
		`{"x":{"y":[1,{"z":null},"\"",true,false,-1.5e+3]},"tuples":[]}`,
		`{"tuples":[[-0,0,0]]}`,
		`{"tuples":[[1e2,0,0]]}`,
		`{"tuples":[[1.0,0,0]]}`,
		`{"tuples":[[1,9223372036854775807,-9223372036854775808]]}`,
		`{"tuples":[[1,9223372036854775808,0]]}`,
		`{"tuples":[[1,-9223372036854775809,0]]}`,
		`{"tuples":[[1,00,0]]}`,
		`{"tuples":[[1,2,3]],"tuples":[[4,5,6],[2,2,2]]}`,
		`{"tuples":[[9,9,9]],"tuples":[[1,1,1]]}`,
		`{"tuples":[[1,2,3]],"tuples":null}`,
		`{"overflow":true,"overflow":null}`,
		`{"tuples":[[1,null,3]]}`,
		`{"tuples":[null]}`,
		`{"tuples":null}`,
		`{"tuples":[]}`,
		`{"tuples":[[]]}`,
		`{"tuples":{}}`,
		`{"tuples":[[1,2,3]]}{"tuples":[]}`,
		`{"tuples":[[1,2,3]]} x`,
		`null`,
		` null `,
		`nul`,
		``,
		` `,
		`[]`,
		`"tuples"`,
		`{"overflow":1}`,
		`{"overflow":"true"}`,
		`{"tuples":[[1,2,3]],}`,
		`{"tuples":[[1,2,3],]}`,
		`{"a":"\x01"}`,
		`{"a":"\q"}`,
		`{"a":"\u12"}`,
		"{\"a\":\"\U00010000\"}",
		"{\"a\":\"\xff\"}",
		`{'tuples':[]}`,
		`{"tuples":[[5,0,0]]}`,
		`{"tuples":[[1,0,101]]}`,
		`{"tuples":[[1,0]]}`,
	}
	for _, cut := range []int{1, 10, 14, 20, len(served) - 2} {
		seeds = append(seeds, served[:cut])
	}
	return seeds
}

// FuzzParseResult checks ParseResult against json.Decoder + DecodeResult:
// equal values when the reference accepts (apart from the two documented
// strictness cases), an error when it rejects, never a panic.
func FuzzParseResult(f *testing.F) {
	for _, s := range resultSeeds() {
		f.Add([]byte(s))
	}
	s := fuzzSchema()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseResult(t, s, body)
	})
}

// FuzzParseBatchResponse is FuzzParseResult for /batch answers.
func FuzzParseBatchResponse(f *testing.F) {
	s := fuzzSchema()
	rs := []hiddendb.Result{{Tuples: dataspace.Bag{{1, 5, -7}}, Overflow: true}, {}, {Tuples: dataspace.Bag{{2, 0, 0}, {3, 1, 1}}}}
	seeds := []string{
		string(AppendBatchResponse(nil, rs, false, "")),
		string(AppendBatchResponse(nil, rs, true, "")),
		string(AppendBatchResponse(nil, rs[:1], false, "store <failed> & \"quit\"\n \xff")),
		string(AppendBatchResponse(nil, nil, true, "")),
		`{"results":[null]}`,
		`{"results":null}`,
		`{"results":[{"tuples":[[1,2,3]],"overflow":true}],"results":[{}]}`,
		`{"results":[{"tuples":[[1,2,3]],"overflow":true},{},{}],"results":[{}],"results":[null,null,null]}`,
		`{"results":[{"tuples":[[1,2,3]]},{"overflow":true},{"tuples":[]}],"results":[],"results":[null,null,null]}`,
		`{"RESULTS":[{"TUPLES":[[1,2,3]]}],"QuotaExceeded":true,"Error":"x"}`,
		`{"quotaExceeded":true,"quotaExceeded":null,"error":"a","error":null}`,
		"{\"error\":\"\U0001F600" + ` \ud800 \udc00 \ud800A é \/ \b\f\n\r\t"}`,
		`{"error":1}`,
		`{"results":{}}`,
		`{"results":[1]}`,
		`{"results":[{"tuples":[[1,null,3]]}]}`,
		`{"results":[{"x":[{"y":{}}]}],"z":{"results":[]}}`,
		`{"results":[]} {}`,
		`null`,
	}
	for _, s := range append(seeds, resultSeeds()...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseBatch(t, s, body)
	})
}
