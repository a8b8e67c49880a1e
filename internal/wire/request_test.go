package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"hidb/internal/dataspace"
)

// checkParseQuery is the differential oracle of FuzzParseQuery:
// json.Decoder + DecodeQuery is the reference. The parser must accept
// exactly what it accepts, decode the same query, and fail malformed
// bytes (a json.Decoder error) with ErrMalformed and a well-formed query
// the schema rejects (a DecodeQuery error) without it.
func checkParseQuery(t *testing.T, s *dataspace.Schema, body []byte) {
	t.Helper()
	var msg QueryMsg
	var want dataspace.Query
	jerr := json.NewDecoder(bytes.NewReader(body)).Decode(&msg)
	werr := jerr
	if jerr == nil {
		want, werr = DecodeQuery(s, msg)
	}
	got, gerr := ParseQuery(s, body)
	checkErrors(t, "ParseQuery", body, jerr, werr, gerr)
	if werr == nil && got.Key() != want.Key() {
		t.Fatalf("ParseQuery(%q) = %s, encoding/json decodes %s", body, got, want)
	}
}

// checkParseBatchRequest is the differential oracle of
// FuzzParseBatchRequest: json.Decoder + DecodeBatchRequest is the
// reference.
func checkParseBatchRequest(t *testing.T, s *dataspace.Schema, body []byte) {
	t.Helper()
	var msg BatchRequest
	var want []dataspace.Query
	jerr := json.NewDecoder(bytes.NewReader(body)).Decode(&msg)
	werr := jerr
	if jerr == nil {
		want, werr = DecodeBatchRequest(s, msg)
	}
	got, token, gerr := ParseBatchRequest(s, body)
	checkErrors(t, "ParseBatchRequest", body, jerr, werr, gerr)
	if werr != nil {
		return
	}
	if len(got) != len(want) || token != msg.Token {
		t.Fatalf("ParseBatchRequest(%q) = %d queries, token %q; encoding/json decodes %d, %q", body, len(got), token, len(want), msg.Token)
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("ParseBatchRequest(%q) query %d = %s, encoding/json decodes %s", body, i, got[i], want[i])
		}
	}
}

// checkParseCrawlRequest holds ParseCrawlRequest to json.Decoder, which
// the /crawl handler treats as the zero request on io.EOF (an empty or
// whitespace-only body).
func checkParseCrawlRequest(t *testing.T, body []byte) {
	t.Helper()
	var want CrawlRequest
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if strings.Trim(string(body), " \t\r\n") == "" {
		werr = nil
	}
	got, gerr := ParseCrawlRequest(body)
	checkErrors(t, "ParseCrawlRequest", body, werr, werr, gerr)
	if werr == nil && got != want {
		t.Fatalf("ParseCrawlRequest(%q) = %+v, encoding/json decodes %+v", body, got, want)
	}
}

// checkErrors compares a parser's error with the reference's: jerr is
// json.Decoder's, werr the reference's overall error.
func checkErrors(t *testing.T, name string, body []byte, jerr, werr, gerr error) {
	t.Helper()
	switch {
	case werr == nil && gerr != nil:
		t.Fatalf("%s rejected %.300q, which encoding/json accepts: %v", name, body, gerr)
	case werr != nil && gerr == nil:
		t.Fatalf("%s accepted %.300q, which the reference rejects: %v", name, body, werr)
	case werr != nil && (jerr != nil) != errors.Is(gerr, ErrMalformed):
		t.Fatalf("%s(%.300q): error %v; the reference fails with %v", name, body, gerr, werr)
	}
}

// requestPreds are predicate lists for fuzzSchema: the edge-case classes a
// request parser must decode exactly as encoding/json plus DecodeQuery.
func requestPreds() []string {
	ints := func(lo, hi int64) string {
		return fmt.Sprintf(`[{"wild":true},{"lo":%d,"hi":%d},{}]`, lo, hi)
	}
	preds := []string{
		`[{"wild":true},{},{}]`,
		`[{"value":2},{"lo":10,"hi":20},{"lo":-100,"hi":100}]`,
		ints(dataspace.NegInf, dataspace.PosInf),
		ints(dataspace.NegInf-1, 0),
		ints(math.MinInt64, math.MaxInt64),
		ints(20, 10),
		`[{"value":0},{},{}]`,
		`[{"value":5},{},{}]`,
		`[{"wild":true,"value":2},{},{}]`,
		`[{"wild":false},{},{}]`,
		`[{"wild":true},{"wild":true},{"value":3}]`,
		`[{"wild":true},{"lo":1.5},{}]`,
		`[{"wild":true},{"lo":1e2},{}]`,
		`[{"wild":true},{"lo":"1"},{}]`,
		`[{"wild":true},{"lo":-0,"hi":9223372036854775808},{}]`,
		`[{"wild":true},{"lo":null,"hi":null},{"lo":-101}]`,
		`[{"wild":true,"wild":null},{},{}]`,
		`[{"value":1,"value":null,"wild":true},{"lo":5,"lo":null},{"hi":5,"hi":null}]`,
		`[{"WILD":true},{"Lo":3,"hI":4},{"LO":1}]`,
		`[{"wild":true,"x":[{"y":null}],"z":"A"},{},{}]`,
		`[null,{},{}]`,
		`[{"wild":true},{},{},{}]`,
		`[{"wild":true}]`,
		`[]`,
		`null`,
		`{}`,
		`[{"wild":"true"},{},{}]`,
		`[{"wild":true},{},{},]`,
		`[{"wild":true},{},{}`,
	}
	for _, q := range queryShapes {
		b, err := json.Marshal(fuzzQueryMsg(q.arity, q.shapes, q.nums).Preds)
		if err != nil {
			panic(err)
		}
		preds = append(preds, string(b))
	}
	return preds
}

// querySeeds are /query bodies: every requestPreds list, plus repeated
// and case-folded "preds" keys, unknown keys, top-level oddities and
// trailing bytes, which json.Decoder never reads.
func querySeeds() []string {
	var seeds []string
	for _, p := range requestPreds() {
		seeds = append(seeds, `{"preds":`+p+`}`)
	}
	return append(seeds,
		` {"x":1, "PREDS" : [{"wild":true},{},{}] } `,
		"{\"predſ\":[{\"wild\":true},{},{}]}",
		`{"pred\u017f":[{"wild":true},{},{}],"preds\u0000":[]}`,
		`{"preds":[{"value":1},{"lo":1},{"hi":2}],"preds":[{"wild":true}]}`,
		`{"preds":[{"value":1},{"lo":1},{"hi":2}],"preds":[{"wild":true}],"preds":[{},null,null]}`,
		`{"preds":[{"value":1},{"lo":1},{"hi":2}],"preds":[],"preds":[{"wild":true},null,null]}`,
		`{"preds":[{"value":1},{"lo":1},{"hi":2}],"preds":null,"preds":[{"wild":true},null,null]}`,
		`{"preds":[{"value":1},{"lo":1},{"hi":2}],"preds":[{"value":null,"wild":true},{"lo":null},{}]}`,
		`{"preds":[{"wild":true},{},{}]} trailing`,
		`{"preds":[{"wild":true},{},{}]}{"preds":[]}`,
		`{"preds":[{"wild":true},{},{}]`,
		`{"preds":[{"wild":true},{},{}],}`,
		`{"a":`+strings.Repeat("[", 40)+strings.Repeat("]", 40)+`,"preds":[{"wild":true},{},{}]}`,
		`null`,
		`null x`,
		`nul`,
		``,
		` `,
		`[]`,
		`"preds"`,
		`{"preds":"x"}`,
		"\x00",
	)
}

// batchSeeds are /batch bodies: each query seed as a one-query batch,
// wider and repeated batches, tokens and nulls.
func batchSeeds() []string {
	good, pin := `{"preds":[{"wild":true},{},{}]}`, `{"preds":[{"value":2},{"lo":1,"hi":9},{}]}`
	var seeds []string
	for _, q := range querySeeds() {
		seeds = append(seeds, `{"queries":[`+q+`]}`)
	}
	return append(seeds,
		`{"queries":[`+good+`,`+pin+`,`+good+`],"token":"t"}`,
		`{"queries":[`+good+`,{"preds":[{"wild":true}]},`+good+`]}`,
		`{"queries":[`+pin+`,`+pin+`,`+pin+`],"queries":[`+good+`],"queries":[null,null,null]}`,
		`{"queries":[`+pin+`,`+pin+`],"queries":[],"queries":[null,null]}`,
		`{"queries":[`+pin+`,`+pin+`],"queries":[{"preds":[{"wild":true}]},{"preds":null}],"queries":[{"preds":[null,null,null]},{"preds":[{"wild":true},{},{}]}]}`,
		`{"QUERIES":[`+good+`],"Token":"a","token":null,"to\u212aen":"b"}`,
		"{\"token\":\"\\ud800 é \xff\",\"queries\":["+good+"]}",
		`{"queries":[`+good+`]} {"queries":[]}`,
		`{"queries":[]}`,
		`{"queries":null}`,
		`{"queries":{}}`,
		`{"queries":[null]}`,
		`{"queries":[1]}`,
		`{"token":1,"queries":[`+good+`]}`,
		`{}`,
		``,
		`null`,
	)
}

// crawlSeeds are /crawl bodies.
func crawlSeeds() []string {
	return []string{
		``, " \n\t", `{}`, `null`, `null x`, `{"algorithm":"hybrid","token":"t","skip":3}`,
		`{"skip":-1}`, `{"skip":1e18}`, `{"skip":1.0}`, `{"skip":9223372036854775807}`, `{"skip":null}`,
		`{"skip":3,"skip":null}`, `{"ALGORITHM":"x","Skip":2,"x":{}}`, `{"algorithm":null}`,
		`{"algorithm":5}`, "{\"token\":\"é\\ud800\xff\",\"\u017fkip\":1}", `{"skip":3} trailing`, `{"skip":3`, `[]`, `x`,
	}
}

// TestParseRequestSeeds runs every request seed through its oracle, so
// the seeds check in `go test` without -fuzz.
func TestParseRequestSeeds(t *testing.T) {
	s := fuzzSchema()
	for _, b := range querySeeds() {
		checkParseQuery(t, s, []byte(b))
	}
	for _, b := range batchSeeds() {
		checkParseBatchRequest(t, s, []byte(b))
	}
	for _, b := range crawlSeeds() {
		checkParseCrawlRequest(t, []byte(b))
	}
	// Arity 10k, too large to seed the fuzzers with.
	checkParseQuery(t, s, []byte(`{"preds":[`+strings.Repeat(`{"wild":true},`, 9999)+`{"wild":true}]}`))
}

// TestParseRequestMatchesDecode round-trips random queries through the
// request encoders and parsers.
func TestParseRequestMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 7))
	for trial := 0; trial < 500; trial++ {
		s := randSchema(rng)
		qs := make([]dataspace.Query, 1+rng.IntN(8))
		for i := range qs {
			qs[i] = randQuery(rng, s)
			checkParseQuery(t, s, AppendQuery(nil, qs[i]))
		}
		checkParseBatchRequest(t, s, AppendBatchRequest(nil, qs))
	}
}

// FuzzParseQuery checks ParseQuery against json.Decoder + DecodeQuery:
// the same query when the reference accepts, an error of the same class
// when it rejects, never a panic.
func FuzzParseQuery(f *testing.F) {
	for _, b := range querySeeds() {
		f.Add([]byte(b))
	}
	s := fuzzSchema()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseQuery(t, s, body)
	})
}

// FuzzParseBatchRequest is FuzzParseQuery for /batch requests, against
// json.Decoder + DecodeBatchRequest.
func FuzzParseBatchRequest(f *testing.F) {
	for _, b := range batchSeeds() {
		f.Add([]byte(b))
	}
	s := fuzzSchema()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseBatchRequest(t, s, body)
	})
}

// TestParseRequestAllocs pins the request parsers' allocations: the
// query's predicate slice for ParseQuery, and the batch slice plus one
// predicate slice per query for ParseBatchRequest. The reference,
// json.Decoder + DecodeQuery (or DecodeBatchRequest), costs 23 on the
// same /query body and 199 on the same 16-query /batch body.
func TestParseRequestAllocs(t *testing.T) {
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
	q := dataspace.UniverseQuery(s).WithValue(0, 7).WithRange(2, 10, 2000).WithRange(4, 0, dataspace.PosInf)
	body := AppendQuery(nil, q)
	if a := testing.AllocsPerRun(100, func() {
		if _, err := ParseQuery(s, body); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Errorf("ParseQuery: %v allocs, want 1", a)
	}
	qs := make([]dataspace.Query, 16)
	for i := range qs {
		qs[i] = q.WithValue(1, int64(1+i%7))
	}
	batch := AppendBatchRequest(nil, qs)
	if a := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseBatchRequest(s, batch); err != nil {
			t.Fatal(err)
		}
	}); a != float64(len(qs)+1) {
		t.Errorf("ParseBatchRequest(%d queries): %v allocs, want %d", len(qs), a, len(qs)+1)
	}
}
