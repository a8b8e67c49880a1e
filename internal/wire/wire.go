// Package wire defines the JSON wire format shared by the HTTP hidden-
// database server and its client: schema descriptions, queries (one
// predicate per attribute, exactly what a search form submits), and query
// responses. The format is deliberately explicit — categorical predicates
// are a value or a wildcard, numeric predicates an inclusive range with
// null standing for ±infinity — so third-party clients can speak it.
//
// The format is fixed: it is what encoding/json writes for the message
// structs below. Neither the request path nor the answer path goes
// through encoding/json or reflection, though. AppendQuery,
// AppendBatchRequest, AppendResult and AppendBatchResponse write the same
// bytes with strconv appends, and TestAppendMatchesEncodingJSON pins them
// byte for byte. ParseQuery, ParseBatchRequest and ParseCrawlRequest read
// a request, and ParseResult and ParseBatchResponse an answer, in one
// pass with pooled scratch. They accept and decode what json.Decoder plus
// the struct converters accept, except that the answer parsers reject two
// inputs more: null as a tuple element, and non-whitespace after the
// top-level value. The struct converters (EncodeQuery, DecodeQuery,
// EncodeResult, DecodeResult) stay: the journal uses them, and the tests
// take them as the reference.
package wire

import (
	"fmt"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// Attribute describes one dimension of the data space on the wire.
type Attribute struct {
	Name string `json:"name"`
	// Kind is "numeric" or "categorical".
	Kind string `json:"kind"`
	// DomainSize is the categorical domain size; omitted for numeric.
	DomainSize int `json:"domainSize,omitempty"`
	// Min and Max are optional declared bounds of a numeric attribute.
	Min *int64 `json:"min,omitempty"`
	Max *int64 `json:"max,omitempty"`
}

// SchemaMsg is the response of the /schema endpoint.
type SchemaMsg struct {
	Attributes []Attribute `json:"attributes"`
	// K is the server's return limit.
	K int `json:"k"`
}

// Pred is one predicate of a query on the wire.
//
// For a categorical attribute exactly one of Wild or Value is set; for a
// numeric attribute Lo/Hi bound the range, with null meaning unbounded.
type Pred struct {
	Wild  bool   `json:"wild,omitempty"`
	Value *int64 `json:"value,omitempty"`
	Lo    *int64 `json:"lo,omitempty"`
	Hi    *int64 `json:"hi,omitempty"`
}

// QueryMsg is the request body of the /query endpoint.
type QueryMsg struct {
	Preds []Pred `json:"preds"`
}

// ResultMsg is the response body of the /query endpoint.
type ResultMsg struct {
	// Tuples holds the returned rows, attribute values in schema order.
	Tuples [][]int64 `json:"tuples"`
	// Overflow signals that the result was truncated to k tuples.
	Overflow bool `json:"overflow"`
}

// BatchRequest is the request body of the /batch endpoint: B form queries
// paying one round trip. The server answers them exactly as if they were
// submitted to /query one by one, in order.
type BatchRequest struct {
	Queries []QueryMsg `json:"queries"`
	// Token is the body-level fallback of the Authorization: Bearer
	// convention (see SetBearer); the header wins when both are present.
	Token string `json:"token,omitempty"`
}

// BatchResponse is the response body of the /batch endpoint. Results holds
// one entry per answered query, in request order. When QuotaExceeded is
// true the server's query budget ran out mid-batch: Results covers only the
// prefix answered before the budget was spent, and the remaining queries
// were not executed. A non-empty Error reports a server failure mid-batch:
// Results again covers the prefix paid for and answered before the failure
// (the batch contract's answered-prefix-plus-error, carried over the wire).
type BatchResponse struct {
	Results       []ResultMsg `json:"results"`
	QuotaExceeded bool        `json:"quotaExceeded,omitempty"`
	Error         string      `json:"error,omitempty"`
}

// EncodeSchema converts a schema and return limit to the wire form.
func EncodeSchema(s *dataspace.Schema, k int) SchemaMsg {
	msg := SchemaMsg{K: k, Attributes: make([]Attribute, s.Dims())}
	for i := 0; i < s.Dims(); i++ {
		a := s.Attr(i)
		wa := Attribute{Name: a.Name}
		if a.Kind == dataspace.Categorical {
			wa.Kind = "categorical"
			wa.DomainSize = a.DomainSize
		} else {
			wa.Kind = "numeric"
			if a.Min != 0 || a.Max != 0 {
				min, max := a.Min, a.Max
				wa.Min, wa.Max = &min, &max
			}
		}
		msg.Attributes[i] = wa
	}
	return msg
}

// DecodeSchema converts the wire form back to a schema and return limit.
func DecodeSchema(msg SchemaMsg) (*dataspace.Schema, int, error) {
	attrs := make([]dataspace.Attribute, len(msg.Attributes))
	for i, wa := range msg.Attributes {
		a := dataspace.Attribute{Name: wa.Name}
		switch wa.Kind {
		case "categorical":
			a.Kind = dataspace.Categorical
			a.DomainSize = wa.DomainSize
		case "numeric":
			a.Kind = dataspace.Numeric
			if wa.Min != nil {
				a.Min = *wa.Min
			}
			if wa.Max != nil {
				a.Max = *wa.Max
			}
		default:
			return nil, 0, fmt.Errorf("wire: attribute %q has unknown kind %q", wa.Name, wa.Kind)
		}
		attrs[i] = a
	}
	s, err := dataspace.NewSchema(attrs)
	if err != nil {
		return nil, 0, err
	}
	if msg.K < 1 {
		return nil, 0, fmt.Errorf("wire: invalid return limit k=%d", msg.K)
	}
	return s, msg.K, nil
}

// EncodeQuery converts a query to the wire form.
func EncodeQuery(q dataspace.Query) QueryMsg {
	s := q.Schema()
	msg := QueryMsg{Preds: make([]Pred, s.Dims())}
	for i := 0; i < s.Dims(); i++ {
		p := q.Pred(i)
		if s.Attr(i).Kind == dataspace.Categorical {
			if p.Wild {
				msg.Preds[i] = Pred{Wild: true}
			} else {
				v := p.Value
				msg.Preds[i] = Pred{Value: &v}
			}
		} else {
			wp := Pred{}
			if p.Lo != dataspace.NegInf {
				lo := p.Lo
				wp.Lo = &lo
			}
			if p.Hi != dataspace.PosInf {
				hi := p.Hi
				wp.Hi = &hi
			}
			msg.Preds[i] = wp
		}
	}
	return msg
}

// DecodeQuery converts the wire form to a query over the given schema.
func DecodeQuery(s *dataspace.Schema, msg QueryMsg) (dataspace.Query, error) {
	if len(msg.Preds) != s.Dims() {
		return dataspace.Query{}, fmt.Errorf("wire: query has %d predicates, schema has %d attributes", len(msg.Preds), s.Dims())
	}
	preds := make([]dataspace.Pred, s.Dims())
	for i, wp := range msg.Preds {
		if s.Attr(i).Kind == dataspace.Categorical {
			switch {
			case wp.Wild && wp.Value == nil:
				preds[i] = dataspace.Pred{Wild: true}
			case !wp.Wild && wp.Value != nil:
				preds[i] = dataspace.Pred{Value: *wp.Value}
			default:
				return dataspace.Query{}, fmt.Errorf("wire: categorical predicate %d must set exactly one of wild/value", i)
			}
		} else {
			lo, hi := dataspace.NegInf, dataspace.PosInf
			if wp.Lo != nil {
				lo = *wp.Lo
			}
			if wp.Hi != nil {
				hi = *wp.Hi
			}
			preds[i] = dataspace.Pred{Lo: lo, Hi: hi}
		}
	}
	return dataspace.NewQuery(s, preds)
}

// EncodeResult converts a server response to the wire form.
func EncodeResult(r hiddendb.Result) ResultMsg {
	msg := ResultMsg{Overflow: r.Overflow, Tuples: make([][]int64, len(r.Tuples))}
	for i, t := range r.Tuples {
		msg.Tuples[i] = []int64(t.Clone())
	}
	return msg
}

// DecodeResult converts the wire form back to a server response, validating
// tuple arity against the schema.
func DecodeResult(s *dataspace.Schema, msg ResultMsg) (hiddendb.Result, error) {
	r := hiddendb.Result{Overflow: msg.Overflow, Tuples: make([]dataspace.Tuple, len(msg.Tuples))}
	for i, vals := range msg.Tuples {
		r.Tuples[i] = dataspace.Tuple(vals)
	}
	if err := validTuples(s, r.Tuples); err != nil {
		return hiddendb.Result{}, err
	}
	return r, nil
}

// validTuples validates every tuple of an answer against the schema.
func validTuples(s *dataspace.Schema, tuples dataspace.Bag) error {
	for i, t := range tuples {
		if err := t.Validate(s); err != nil {
			return fmt.Errorf("wire: tuple %d: %w", i, err)
		}
	}
	return nil
}
