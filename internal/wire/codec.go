// The wire codec: append encoders that write exactly the bytes
// encoding/json writes for the message structs, and one-pass parsers for
// /query, /batch and /crawl requests and for /query and /batch answers.
// Neither side uses reflection or builds the intermediate message structs.

package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// AppendQuery appends the /query request body for q to dst: the bytes of
// json.Marshal(EncodeQuery(q)).
func AppendQuery(dst []byte, q dataspace.Query) []byte {
	s := q.Schema()
	dst = append(dst, `{"preds":[`...)
	for i := 0; i < s.Dims(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		p := q.Pred(i)
		switch {
		case s.Attr(i).Kind != dataspace.Categorical:
			dst = append(dst, '{')
			if p.Lo != dataspace.NegInf {
				dst = append(dst, `"lo":`...)
				dst = strconv.AppendInt(dst, p.Lo, 10)
			}
			if p.Hi != dataspace.PosInf {
				if p.Lo != dataspace.NegInf {
					dst = append(dst, ',')
				}
				dst = append(dst, `"hi":`...)
				dst = strconv.AppendInt(dst, p.Hi, 10)
			}
			dst = append(dst, '}')
		case p.Wild:
			dst = append(dst, `{"wild":true}`...)
		default:
			dst = append(dst, `{"value":`...)
			dst = strconv.AppendInt(dst, p.Value, 10)
			dst = append(dst, '}')
		}
	}
	return append(dst, "]}"...)
}

// AppendBatchRequest appends the /batch request body for qs to dst: the
// bytes of json.Marshal of the BatchRequest holding EncodeQuery of each
// query.
func AppendBatchRequest(dst []byte, qs []dataspace.Query) []byte {
	dst = append(dst, `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendQuery(dst, q)
	}
	return append(dst, "]}"...)
}

// AppendResult appends the /query response body for r to dst: the bytes a
// json.Encoder writes for EncodeResult(r), trailing newline included.
func AppendResult(dst []byte, r hiddendb.Result) []byte {
	return append(appendResult(dst, r), '\n')
}

// AppendBatchResponse appends the /batch response body to dst: the bytes a
// json.Encoder writes for the BatchResponse holding EncodeResult of each
// result, quotaExceeded and serverErr, trailing newline included.
func AppendBatchResponse(dst []byte, rs []hiddendb.Result, quotaExceeded bool, serverErr string) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, r)
	}
	dst = append(dst, ']')
	if quotaExceeded {
		dst = append(dst, `,"quotaExceeded":true`...)
	}
	if serverErr != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, serverErr)
	}
	return append(dst, "}\n"...)
}

func appendResult(dst []byte, r hiddendb.Result) []byte {
	dst = append(dst, `{"tuples":[`...)
	for i, t := range r.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range t {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"overflow":`...)
	dst = strconv.AppendBool(dst, r.Overflow)
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does by
// default: HTML-escaped (<, >, & as \u00XX), U+2028 and U+2029 escaped,
// and invalid UTF-8 coerced to \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// The parsers below accept what json.NewDecoder(body).Decode into the
// message struct accepts, and decode it to the same values: any
// whitespace, key order and unknown keys; keys matched like encoding/json
// matches field names (case-insensitively, after unescaping); a repeated
// key decoding into what its earlier occurrences left, exactly as
// encoding/json decodes into an existing value; null leaving a boolean,
// integer, string or object unchanged and clearing an array or a pointer.
// Like the struct converters after json.Decoder, they check the decoded
// message against the schema only once the whole body is parsed: a
// repeated key may replace an invalid value. Every error about the bytes
// themselves wraps ErrMalformed.
//
// The request parsers stop after the top-level value, as json.Decoder
// does: what follows it is never read. The answer parsers reject what
// encoding/json rejects, and two inputs more, each a typed error:
var (
	// errTrailingData: non-whitespace after the top-level value, which
	// json.Decoder would leave unread for its next Decode.
	errTrailingData = errors.New("data after the top-level value")
	// errNullElement: null as a tuple element, which encoding/json decodes
	// by leaving the element's previous value in place.
	errNullElement = errors.New("null tuple element")
)

// ErrMalformed is wrapped by every parser error about the body's bytes:
// not JSON, not the message's shape, or a number that is not a whole
// int64. A well-formed message the schema rejects fails without it.
var ErrMalformed = errors.New("malformed")

// maxDepth is encoding/json's nesting limit; the parsers enforce it so a
// deeply nested unknown field fails exactly where encoding/json fails.
const maxDepth = 10000

// maxPooledValues bounds the tuple scratch a pooled parser keeps, and a
// quarter of it the request scratch (a reqPred is four words), so one huge
// body does not pin its scratch for the life of the process.
const maxPooledValues = 1 << 16

// parser is one pass over a request or answer body. Tuple values are
// collected in the pooled vals/ends scratch and copied out once per tuples
// array, and a request's queries are decoded in the pooled reqs scratch,
// so a parsed message never references the body or the scratch.
type parser struct {
	data []byte
	pos  int
	body string  // "request" or "answer", for error messages
	vals []int64 // values of the tuples array being parsed
	ends []int   // end offset in vals of each of its tuples
	text []byte  // an unescaped key or string
	// reqs holds the queries of the request being parsed, decoded in
	// place: a batch's queries, then those past its length that a
	// repeated "queries" array may decode into again (see reqQuery).
	// preds is one query's predicates before NewQuery copies them.
	reqs  []reqQuery
	preds []dataspace.Pred
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

func newParser(data []byte, body string) *parser {
	p := parsers.Get().(*parser)
	p.data, p.pos, p.body = data, 0, body
	p.reqs = p.reqs[:0]
	return p
}

func (p *parser) release() {
	p.data = nil
	if cap(p.vals) > maxPooledValues {
		p.vals, p.ends = nil, nil
	}
	n := cap(p.reqs) + cap(p.preds)
	for _, q := range p.reqs[:cap(p.reqs)] {
		n += cap(q.preds)
	}
	if n > maxPooledValues/4 {
		p.reqs, p.preds = nil, nil
	}
	parsers.Put(p)
}

// ParseResult parses a /query response body into a result, validating
// every tuple against the schema. The tuples share one freshly allocated
// flat []int64; each is a capped subslice of it, and none references body.
func ParseResult(s *dataspace.Schema, body []byte) (hiddendb.Result, error) {
	p := newParser(body, "answer")
	defer p.release()
	var r hiddendb.Result
	if p.skipSpace(); !p.literal("null") {
		if err := p.result(&r, 0); err != nil {
			return hiddendb.Result{}, err
		}
	}
	if err := p.end(); err != nil {
		return hiddendb.Result{}, err
	}
	if err := validTuples(s, r.Tuples); err != nil {
		return hiddendb.Result{}, err
	}
	return r, nil
}

// ParseBatchResponse parses a /batch response body: the answered results
// (each as ParseResult returns it), the quota flag and the server's
// mid-batch error string.
func ParseBatchResponse(s *dataspace.Schema, body []byte) (results []hiddendb.Result, quotaExceeded bool, serverErr string, err error) {
	p := newParser(body, "answer")
	defer p.release()
	if p.skipSpace(); !p.literal("null") {
		err = p.object(func(key []byte) error {
			switch {
			case isField(key, "results"):
				var err error
				results, err = p.results(results)
				return err
			case isField(key, "quotaExceeded"):
				return p.boolean(&quotaExceeded)
			case isField(key, "error"):
				return p.str(&serverErr)
			}
			return p.skip(1)
		})
		if err != nil {
			return nil, false, "", err
		}
	}
	if err := p.end(); err != nil {
		return nil, false, "", err
	}
	for i := range results {
		if err := validTuples(s, results[i].Tuples); err != nil {
			return nil, false, "", fmt.Errorf("wire: batch result %d: %w", i, err)
		}
	}
	return results, quotaExceeded, serverErr, nil
}

// ParseQuery parses a /query request body into a query over the schema:
// what DecodeQuery returns for the QueryMsg json.Decoder decodes from
// body. The only allocation is the query's predicate slice.
func ParseQuery(s *dataspace.Schema, body []byte) (dataspace.Query, error) {
	p := newParser(body, "request")
	defer p.release()
	q := p.nextQuery()
	if p.skipSpace(); !p.literal("null") {
		if err := p.query(q, 0); err != nil {
			return dataspace.Query{}, err
		}
	}
	return p.newQuery(s, q)
}

// ParseBatchRequest parses a /batch request body into its queries and
// body-level token. A single query the schema rejects fails the whole
// batch, with its index in the error. The only allocations are the batch
// slice, each query's predicate slice and the token.
func ParseBatchRequest(s *dataspace.Schema, body []byte) (qs []dataspace.Query, token string, err error) {
	p := newParser(body, "request")
	defer p.release()
	n := 0
	if p.skipSpace(); !p.literal("null") {
		err := p.object(func(key []byte) error {
			switch {
			case isField(key, "queries"):
				var err error
				n, err = p.queries()
				return err
			case isField(key, "token"):
				return p.str(&token)
			}
			return p.skip(1)
		})
		if err != nil {
			return nil, "", err
		}
	}
	qs = make([]dataspace.Query, n)
	for i := range qs {
		if qs[i], err = p.newQuery(s, &p.reqs[i]); err != nil {
			return nil, "", fmt.Errorf("wire: batch query %d: %w", i, err)
		}
	}
	return qs, token, nil
}

// ParseCrawlRequest parses a /crawl request body. An empty or
// whitespace-only body is the zero request, as is null.
func ParseCrawlRequest(body []byte) (CrawlRequest, error) {
	p := newParser(body, "request")
	defer p.release()
	var msg CrawlRequest
	if p.skipSpace(); p.pos == len(p.data) || p.literal("null") {
		return msg, nil
	}
	err := p.object(func(key []byte) error {
		switch {
		case isField(key, "algorithm"):
			return p.str(&msg.Algorithm)
		case isField(key, "token"):
			return p.str(&msg.Token)
		case isField(key, "skip"):
			skip, set := int64(msg.Skip), false
			err := p.optInt(&skip, &set)
			msg.Skip = int(skip)
			return err
		}
		return p.skip(1)
	})
	if err != nil {
		return CrawlRequest{}, err
	}
	return msg, nil
}

// reqPred is a Pred as encoding/json leaves it after decoding in place,
// with a flag per pointer field instead of the pointer.
type reqPred struct {
	value, lo, hi                int64
	wild, hasValue, hasLo, hasHi bool
}

// reqQuery is a QueryMsg as encoding/json leaves it after decoding in
// place: preds[:n] is its Preds. encoding/json reuses a slice's backing
// array when a repeated key decodes into it, so an element past the
// current length keeps what an earlier array wrote there: preds[n:] holds
// those elements, and the backing array is zero beyond them.
type reqQuery struct {
	preds []reqPred
	n     int
}

// nextQuery appends a zero query to reqs, keeping the predicate capacity
// a pooled parser left in that slot.
func (p *parser) nextQuery() *reqQuery {
	if n := len(p.reqs); n < cap(p.reqs) {
		p.reqs = p.reqs[:n+1]
		p.reqs[n] = reqQuery{preds: p.reqs[n].preds[:0]}
	} else {
		p.reqs = append(p.reqs, reqQuery{})
	}
	return &p.reqs[len(p.reqs)-1]
}

// queries decodes a "queries" array in place into reqs, with the slice
// semantics of parser.results, and returns the batch's new length.
func (p *parser) queries() (int, error) {
	if p.skipSpace(); p.literal("null") {
		p.reqs = p.reqs[:0]
		return 0, nil
	}
	i := 0
	err := p.array(func() error {
		if i == len(p.reqs) {
			p.nextQuery()
		}
		i++
		if p.literal("null") {
			return nil
		}
		return p.query(&p.reqs[i-1], 2)
	})
	if i == 0 {
		p.reqs = p.reqs[:0]
	}
	return i, err
}

// query decodes a query object at nesting depth (its enclosing
// containers) into q.
func (p *parser) query(q *reqQuery, depth int) error {
	return p.object(func(key []byte) error {
		if isField(key, "preds") {
			return p.predList(q, depth+2)
		}
		return p.skip(depth + 1)
	})
}

// predList decodes a "preds" array in place into q, whose objects sit at
// nesting depth.
func (p *parser) predList(q *reqQuery, depth int) error {
	if p.skipSpace(); p.literal("null") {
		q.preds, q.n = q.preds[:0], 0
		return nil
	}
	i := 0
	err := p.array(func() error {
		if i == len(q.preds) {
			q.preds = append(q.preds, reqPred{})
		}
		i++
		if p.literal("null") {
			return nil
		}
		return p.pred(&q.preds[i-1], depth)
	})
	if q.n = i; i == 0 {
		q.preds = q.preds[:0]
	}
	return err
}

// pred decodes a predicate object at nesting depth into w.
func (p *parser) pred(w *reqPred, depth int) error {
	return p.object(func(key []byte) error {
		switch {
		case isField(key, "wild"):
			return p.boolean(&w.wild)
		case isField(key, "value"):
			return p.optInt(&w.value, &w.hasValue)
		case isField(key, "lo"):
			return p.optInt(&w.lo, &w.hasLo)
		case isField(key, "hi"):
			return p.optInt(&w.hi, &w.hasHi)
		}
		return p.skip(depth + 1)
	})
}

// optInt decodes a whole int64 into *v and sets *set; null clears *set,
// as it sets an *int64 field to nil.
func (p *parser) optInt(v *int64, set *bool) error {
	if p.skipSpace(); p.literal("null") {
		*set = false
		return nil
	}
	n, err := p.integer()
	if err != nil {
		return err
	}
	*v, *set = n, true
	return nil
}

// newQuery converts a decoded query to a query over s, as DecodeQuery
// does: a categorical predicate must set exactly one of wild and value, a
// numeric one's unset bounds are unbounded. The predicates are built in
// the pooled scratch, which NewQuery copies.
func (p *parser) newQuery(s *dataspace.Schema, q *reqQuery) (dataspace.Query, error) {
	if q.n != s.Dims() {
		return dataspace.Query{}, fmt.Errorf("wire: query has %d predicates, schema has %d attributes", q.n, s.Dims())
	}
	preds := p.preds[:0]
	for i, wp := range q.preds[:q.n] {
		if s.Attr(i).Kind != dataspace.Categorical {
			lo, hi := dataspace.NegInf, dataspace.PosInf
			if wp.hasLo {
				lo = wp.lo
			}
			if wp.hasHi {
				hi = wp.hi
			}
			preds = append(preds, dataspace.Pred{Lo: lo, Hi: hi})
			continue
		}
		switch {
		case wp.wild && !wp.hasValue:
			preds = append(preds, dataspace.Pred{Wild: true})
		case !wp.wild && wp.hasValue:
			preds = append(preds, dataspace.Pred{Value: wp.value})
		default:
			return dataspace.Query{}, fmt.Errorf("wire: categorical predicate %d must set exactly one of wild/value", i)
		}
	}
	p.preds = preds
	return dataspace.NewQuery(s, preds)
}

func (p *parser) fail(what string) error {
	return p.failAt(p.pos, errors.New(what))
}

func (p *parser) failAt(pos int, err error) error {
	return fmt.Errorf("wire: %w %s at offset %d: %w", ErrMalformed, p.body, pos, err)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *parser) consume(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// literal advances past lit if the input continues with it.
func (p *parser) literal(lit string) bool {
	if len(p.data)-p.pos >= len(lit) && string(p.data[p.pos:p.pos+len(lit)]) == lit {
		p.pos += len(lit)
		return true
	}
	return false
}

func (p *parser) end() error {
	p.skipSpace()
	if p.pos < len(p.data) {
		return p.failAt(p.pos, errTrailingData)
	}
	return nil
}

// isField reports whether an object key selects the named field, under
// encoding/json's rule: an exact match, else a case-insensitive one.
func isField(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// object parses an object at the current position (after whitespace),
// handing each key to field, which must parse the key's value.
func (p *parser) object(field func(key []byte) error) error {
	if !p.consume('{') {
		return p.fail("expected an object")
	}
	if p.skipSpace(); p.consume('}') {
		return nil
	}
	for {
		p.skipSpace()
		raw, escaped, err := p.rawString()
		if err != nil {
			return err
		}
		if escaped {
			p.text = unquote(p.text[:0], raw)
			raw = p.text
		}
		if p.skipSpace(); !p.consume(':') {
			return p.fail("expected : after object key")
		}
		if err := field(raw); err != nil {
			return err
		}
		p.skipSpace()
		if p.consume('}') {
			return nil
		}
		if !p.consume(',') {
			return p.fail("expected , or } after object value")
		}
	}
}

// result decodes a result object at nesting depth (its enclosing
// containers) into r, leaving the fields the object does not set as they
// were — encoding/json's decoding into an existing struct.
func (p *parser) result(r *hiddendb.Result, depth int) error {
	return p.object(func(key []byte) error {
		switch {
		case isField(key, "tuples"):
			var err error
			r.Tuples, err = p.tuples()
			return err
		case isField(key, "overflow"):
			return p.boolean(&r.Overflow)
		}
		return p.skip(depth + 1)
	})
}

// array parses an array at the current position (after whitespace),
// calling elem at each element, after its leading whitespace.
func (p *parser) array(elem func() error) error {
	if !p.consume('[') {
		return p.fail("expected an array")
	}
	if p.skipSpace(); p.consume(']') {
		return nil
	}
	for {
		p.skipSpace()
		if err := elem(); err != nil {
			return err
		}
		p.skipSpace()
		if p.consume(']') {
			return nil
		}
		if !p.consume(',') {
			return p.fail("expected , or ] after array element")
		}
	}
}

// results decodes a "results" array into rs with encoding/json's slice
// semantics: elements are decoded in place (a null element keeps what it
// held, an object merges into it), the slice grows like append, a shorter
// array truncates it, an empty one replaces it and null clears it.
func (p *parser) results(rs []hiddendb.Result) ([]hiddendb.Result, error) {
	if p.skipSpace(); p.literal("null") {
		return nil, nil
	}
	i := 0
	err := p.array(func() error {
		if i >= cap(rs) {
			rs = append(rs[:cap(rs)], hiddendb.Result{})[:len(rs)]
		}
		if i >= len(rs) {
			rs = rs[:i+1]
		}
		i++
		if p.literal("null") {
			return nil
		}
		return p.result(&rs[i-1], 2)
	})
	switch {
	case err != nil:
		return nil, err
	case i == 0:
		return []hiddendb.Result{}, nil
	}
	return rs[:i], nil
}

// tuples decodes a "tuples" array into a fresh bag backed by one flat
// []int64, or nil for null. A null tuple decodes as an empty one (and
// fails validation); a null tuple element is errNullElement.
func (p *parser) tuples() (dataspace.Bag, error) {
	if p.skipSpace(); p.literal("null") {
		return nil, nil
	}
	vals, ends := p.vals[:0], p.ends[:0]
	err := p.array(func() error {
		if !p.literal("null") {
			err := p.array(func() error {
				v, err := p.integer()
				if err != nil && p.literal("null") {
					return p.failAt(p.pos-len("null"), errNullElement)
				}
				vals = append(vals, v)
				return err
			})
			if err != nil {
				return err
			}
		}
		ends = append(ends, len(vals))
		return nil
	})
	p.vals, p.ends = vals, ends
	if err != nil {
		return nil, err
	}
	flat := make([]int64, len(vals))
	copy(flat, vals)
	bag := make(dataspace.Bag, len(ends))
	start := 0
	for i, end := range ends {
		bag[i] = flat[start:end:end]
		start = end
	}
	return bag, nil
}

// integer parses a number that must be a whole int64, as encoding/json's
// strconv.ParseInt decoding requires: no fraction, no exponent, in range.
// It fails without advancing.
func (p *parser) integer() (int64, error) {
	d, i := p.data, p.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		u = u*10 + uint64(d[i]-'0')
	}
	switch n := i - start; {
	case n == 0 || d[start] == '0' && n > 1:
		return 0, p.fail("expected a number")
	case i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E'):
		return 0, p.fail("number is not an integer")
	case n > 19 || neg && u > -math.MinInt64 || !neg && u > math.MaxInt64:
		return 0, p.fail("number out of int64 range")
	}
	p.pos = i
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// number advances past one JSON number, reporting whether the grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? matched.
func (p *parser) number() bool {
	d, i := p.data, p.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		return false
	}
	if i < len(d) && d[i] == '.' {
		j := skipDigits(d, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			return false
		}
		i = j
	}
	p.pos = i
	return true
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// boolean decodes true or false into dst; null leaves dst unchanged.
func (p *parser) boolean(dst *bool) error {
	p.skipSpace()
	switch {
	case p.literal("true"):
		*dst = true
	case p.literal("false"):
		*dst = false
	case p.literal("null"):
	default:
		return p.fail("expected a boolean")
	}
	return nil
}

// str decodes a string into dst; null leaves dst unchanged.
func (p *parser) str(dst *string) error {
	p.skipSpace()
	if p.literal("null") {
		return nil
	}
	raw, escaped, err := p.rawString()
	if err != nil {
		return err
	}
	if escaped || !utf8.Valid(raw) {
		p.text = unquote(p.text[:0], raw)
		raw = p.text
	}
	*dst = string(raw)
	return nil
}

// rawString advances past a string at the current position, returning
// its undecoded contents and whether they hold an escape. It enforces
// encoding/json's string syntax: no raw control characters, and only the
// escapes \" \\ \/ \b \f \n \r \t and \uXXXX.
func (p *parser) rawString() (raw []byte, escaped bool, err error) {
	if !p.consume('"') {
		return nil, false, p.fail("expected a string")
	}
	d, start := p.data, p.pos
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			p.pos = i + 1
			return d[start:i], escaped, nil
		case c == '\\':
			escaped = true
			if i+1 >= len(d) {
				break
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
				continue
			case 'u':
				if i+5 < len(d) && hex4(d[i+2:i+6]) >= 0 {
					i += 5
					continue
				}
			}
			p.pos = i
			return nil, false, p.fail("invalid escape in string")
		case c < ' ':
			p.pos = i
			return nil, false, p.fail("control character in string")
		}
	}
	p.pos = len(d)
	return nil, false, p.fail("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the decoded contents of a string rawString accepted,
// as encoding/json decodes them: surrogate pairs joined, lone surrogates
// and invalid UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// skip advances past one value of any type — an unknown key's — whose
// enclosing containers number depth.
func (p *parser) skip(depth int) error {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return p.fail("unexpected end of input")
	}
	switch c := p.data[p.pos]; c {
	case '{', '[':
		if depth+1 > maxDepth {
			return p.fail("exceeded max depth")
		}
		if c == '{' {
			return p.object(func([]byte) error { return p.skip(depth + 1) })
		}
		return p.array(func() error { return p.skip(depth + 1) })
	case '"':
		_, _, err := p.rawString()
		return err
	case 't', 'f', 'n':
		if p.literal("true") || p.literal("false") || p.literal("null") {
			return nil
		}
		return p.fail("invalid literal")
	}
	if !p.number() {
		return p.fail("invalid value")
	}
	return nil
}
