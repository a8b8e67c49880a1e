package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// fuzzSeedJournal builds a tiny, fully known journal for the decoder fuzz.
func fuzzSeedJournal(f *testing.F) *Journal {
	f.Helper()
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 3},
		{Name: "N", Kind: dataspace.Numeric},
	})
	j := New(schema, 4)
	for c := int64(1); c <= 3; c++ {
		q, err := dataspace.NewQuery(schema, []dataspace.Pred{{Value: c}, {Lo: 0, Hi: 100}})
		if err != nil {
			f.Fatal(err)
		}
		j.Record(q, hiddendb.Result{
			Tuples:   dataspace.Bag{{c, 7}, {c, 42}},
			Overflow: c == 1,
		})
	}
	return j
}

// recordSpans returns the [start, end) byte spans of each framed record in
// a serialized v2 journal (header, entries, trailer), after the magic.
func recordSpans(f *testing.F, full []byte) [][2]int {
	f.Helper()
	var spans [][2]int
	off := len(magicV2)
	for off < len(full) {
		if off+4 > len(full) {
			f.Fatalf("truncated frame at %d", off)
		}
		n := int(binary.BigEndian.Uint32(full[off:]))
		end := off + 4 + n + 4
		if end > len(full) {
			f.Fatalf("frame at %d overruns the file", off)
		}
		spans = append(spans, [2]int{off, end})
		off = end
	}
	return spans
}

// FuzzReadFrom throws arbitrary bytes at the journal decoder and checks
// the recovery contract: never panic, never allocate unboundedly, and
// whenever a journal comes back (clean or alongside a *CorruptionError)
// it is internally consistent — the reported entry count matches, every
// recovered entry looks up to its recorded result, and the journal
// re-serializes to a clean file. Every error is a typed *CorruptionError,
// including for a file that does not start with the v2 magic.
func FuzzReadFrom(f *testing.F) {
	j := fuzzSeedJournal(f)
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	spans := recordSpans(f, valid)

	f.Add(valid)                 // clean file
	f.Add(valid[:len(valid)-5])  // torn inside the trailer
	f.Add(valid[:spans[2][0]])   // torn at a record boundary (no trailer)
	f.Add(valid[:spans[1][0]+7]) // torn mid-entry
	flipped := bytes.Clone(valid)
	flipped[spans[1][0]+9] ^= 0x20 // bit flip inside an entry payload
	f.Add(flipped)
	var dup []byte // first entry record duplicated: trailer count mismatch
	dup = append(dup, valid[:spans[2][0]]...)
	dup = append(dup, valid[spans[1][0]:spans[1][1]]...)
	dup = append(dup, valid[spans[2][0]:]...)
	f.Add(dup)
	f.Add([]byte(magicV2))                // magic only
	f.Add([]byte(`{"schema":{}}` + "\n")) // pre-v2 JSON-lines header: typed corruption

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrom(bytes.NewReader(data))
		var ce *CorruptionError
		switch {
		case err == nil:
			if got == nil {
				t.Fatal("clean read returned a nil journal")
			}
		case errors.As(err, &ce):
			if got != nil && ce.Entries != got.Len() {
				t.Fatalf("error reports %d entries, journal has %d", ce.Entries, got.Len())
			}
			if got == nil && ce.Entries != 0 {
				t.Fatalf("nil journal but %d entries reported", ce.Entries)
			}
		default:
			t.Fatalf("untyped error %v (journal %v)", err, got)
		}
		if got == nil {
			return
		}
		// Whatever was recovered must be well-formed: every logged entry is
		// what lookup answers for its query, and re-serialization is
		// lossless.
		for _, e := range got.log {
			res, ok := got.lookup(e.q)
			if !ok {
				t.Fatalf("recovered entry %s does not look up", e.q)
			}
			if res.Overflow != e.res.Overflow || !res.Tuples.EqualMultiset(e.res.Tuples) {
				t.Fatalf("recovered entry %s looks up to a different result", e.q)
			}
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("recovered journal does not re-serialize: %v", err)
		}
		back, err := ReadFrom(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized journal does not read back clean: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("re-serialization lost entries: %d of %d", back.Len(), got.Len())
		}
	})
}
