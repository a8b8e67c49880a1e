package wire

import (
	"fmt"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// The batch struct converters are the reference the tests hold the batch
// codec to: json.Marshal of EncodeBatchRequest is what AppendBatchRequest
// must write, json.Decoder plus DecodeBatchRequest what ParseBatchRequest
// must accept, and likewise for the batch answer.

// EncodeBatchRequest converts a query batch to the wire form.
func EncodeBatchRequest(qs []dataspace.Query) BatchRequest {
	msg := BatchRequest{Queries: make([]QueryMsg, len(qs))}
	for i, q := range qs {
		msg.Queries[i] = EncodeQuery(q)
	}
	return msg
}

// DecodeBatchRequest converts the wire form to queries over the schema. A
// single malformed query fails the whole batch — no prefix is answered.
func DecodeBatchRequest(s *dataspace.Schema, msg BatchRequest) ([]dataspace.Query, error) {
	qs := make([]dataspace.Query, len(msg.Queries))
	for i, qm := range msg.Queries {
		q, err := DecodeQuery(s, qm)
		if err != nil {
			return nil, fmt.Errorf("wire: batch query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// EncodeBatchResponse converts the answered prefix of a batch to the wire
// form. quotaExceeded marks a batch cut short by the server's budget.
func EncodeBatchResponse(rs []hiddendb.Result, quotaExceeded bool) BatchResponse {
	msg := BatchResponse{Results: make([]ResultMsg, len(rs)), QuotaExceeded: quotaExceeded}
	for i, r := range rs {
		msg.Results[i] = EncodeResult(r)
	}
	return msg
}

// DecodeBatchResponse converts the wire form back to server responses,
// validating every tuple against the schema.
func DecodeBatchResponse(s *dataspace.Schema, msg BatchResponse) (results []hiddendb.Result, quotaExceeded bool, err error) {
	results = make([]hiddendb.Result, len(msg.Results))
	for i, rm := range msg.Results {
		r, err := DecodeResult(s, rm)
		if err != nil {
			return nil, false, fmt.Errorf("wire: batch result %d: %w", i, err)
		}
		results[i] = r
	}
	return results, msg.QuotaExceeded, nil
}
