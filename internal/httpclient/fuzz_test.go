package httpclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpserver"
	"hidb/internal/session"
	"hidb/internal/wire"
)

func fuzzSchema() *dataspace.Schema {
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 4},
		{Name: "N", Kind: dataspace.Numeric, Min: -100, Max: 100},
	})
}

// FuzzCrawlStream feeds arbitrary byte streams — seeded with truncated,
// interleaved, duplicate-event and malformed-tuple corpora — through the
// /crawl NDJSON decoder and checks its contract: it never panics, every
// emitted tuple validates against the schema, a nil error implies the
// stream carried a terminal event whose counters were surfaced, and
// nothing after the first terminal line is ever emitted.
func FuzzCrawlStream(f *testing.F) {
	seeds := []string{
		// Well-formed: two tuples and a terminal summary.
		`{"tuple":[1,5],"queries":3}` + "\n" + `{"tuple":[2,-7],"queries":4}` + "\n" + `{"done":true,"queries":4,"tuples":2,"resolved":3,"overflowed":1}`,
		// Truncated: no terminal event.
		`{"tuple":[1,5],"queries":3}`,
		// Truncated mid-line.
		`{"tuple":[1,5],"quer`,
		// Empty stream.
		``,
		// Interleaved: tuples after the terminal line must be ignored.
		`{"done":true,"queries":2}` + "\n" + `{"tuple":[1,5],"queries":9}`,
		// Duplicate terminal events: only the first counts.
		`{"done":true,"queries":2,"skipped":1}` + "\n" + `{"done":true,"queries":77}`,
		// Quota terminal.
		`{"tuple":[3,0],"queries":1}` + "\n" + `{"done":true,"queries":1,"error":"quota","quotaExceeded":true}`,
		// Server failure terminal.
		`{"done":true,"queries":5,"error":"store exploded"}`,
		// Malformed tuples: wrong arity, out-of-domain value.
		`{"tuple":[1],"queries":1}`,
		`{"tuple":[9,5],"queries":1}`,
		`{"tuple":[1,101],"queries":1}`,
		// Tuple-less progress lines are legal.
		`{"queries":7}` + "\n" + `{"done":true,"queries":7}`,
		// Garbage.
		`not json at all`,
		`[1,2,3]`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add(s, uint8(0))
	}
	schema := fuzzSchema()
	f.Fuzz(func(t *testing.T, stream string, stopAfter uint8) {
		var emitted []dataspace.Tuple
		emit := func(tu dataspace.Tuple) bool {
			emitted = append(emitted, tu)
			// Exercise the client-side break path at a fuzzed position.
			return stopAfter == 0 || len(emitted) < int(stopAfter)
		}
		events := 0
		sawDone := false
		var term wire.CrawlEvent
		res, stopped, err := crawlStream(schema, strings.NewReader(stream), func(ev wire.CrawlEvent) {
			events++
			if ev.Done && !sawDone {
				sawDone, term = true, ev
			}
		}, emit)

		for i, tu := range emitted {
			if verr := tu.Validate(schema); verr != nil {
				t.Fatalf("emitted tuple %d does not validate: %v", i, verr)
			}
		}
		if stopped && err != nil {
			t.Fatalf("stopped stream still returned an error: %v", err)
		}
		if err == nil && !stopped {
			if !sawDone {
				t.Fatal("nil error without a terminal event")
			}
			if res.Queries != term.Queries || res.Skipped != term.Skipped ||
				res.Resolved != term.Resolved || res.Overflowed != term.Overflowed {
				t.Fatalf("terminal counters not surfaced: got %+v, terminal %+v", res, term)
			}
		}
		if errors.Is(err, hiddendb.ErrQuotaExceeded) && (!sawDone || !term.QuotaExceeded) {
			t.Fatal("quota error without a quota terminal event")
		}
		if sawDone && stopAfter == 0 {
			// Nothing after the first terminal line is consumed: the
			// decoder returns at the Done event, so the event count can
			// exceed the tuple count only by lines before it.
			if len(emitted) > events {
				t.Fatalf("emitted %d tuples from %d events", len(emitted), events)
			}
		}
	})
}

// FuzzCrawlReconnectSchedule drives the real auto-resume loop — DialRetry,
// Crawl and CrawlSeq, the skip cursor — against a live server whose
// /crawl responses are truncated per a fuzzed chaos schedule (one byte per
// connection: the fraction of the stream allowed through, 255 =
// undisturbed). Each entry point runs the schedule on a fresh server.
// However the schedule severs the streams, the stitched crawl must deliver
// the exact dataset bag once — no duplicates, no losses — and pay exactly
// the fault-free query count, since every reconnect replays the journaled
// prefix for free. Crawl's paid count is its terminal event's; CrawlSeq
// reports none on success, so its count is the session's own.
func FuzzCrawlReconnectSchedule(f *testing.F) {
	f.Add([]byte{128})
	f.Add([]byte{0, 0, 64})
	f.Add([]byte{20, 255, 90})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6})

	ds, err := datagen.Random(datagen.RandomSpec{
		N:          80,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 300}},
		DupRate:    0.05,
	}, 29)
	if err != nil {
		f.Fatal(err)
	}
	const k = 8

	// Fault-free reference cost, computed once.
	refLocal, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		f.Fatal(err)
	}
	refHandler := httpserver.New(refLocal, httpserver.WithSessions(session.Config{}))
	refTS := httptest.NewServer(refHandler)
	refClient, err := DialToken(context.Background(), refTS.URL, "tok", nil)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := refClient.Crawl(context.Background(), "", 0, nil)
	refTS.Close()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 8 {
			schedule = schedule[:8] // keep reconnect storms bounded
		}
		// Translate the schedule into byte cut points lazily: a connection's
		// allowance is fraction/255 of however much it would have streamed.
		cuts := make([]int, len(schedule))
		for i, frac := range schedule {
			if frac == 255 {
				cuts[i] = -1 // undisturbed
			} else {
				cuts[i] = int(frac) * 40 // 0..~10KB into the stream
			}
		}
		for _, seq := range []bool{false, true} {
			local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
			if err != nil {
				t.Fatal(err)
			}
			h := httpserver.New(local, httpserver.WithSessions(session.Config{}))
			front := &cuttingFront{inner: h, cuts: cuts}
			ts := httptest.NewServer(front)
			defer ts.Close()

			clock := hiddendb.NewSimClock()
			c, err := DialRetry(context.Background(), ts.URL, "tok", nil, RetryPolicy{
				MaxAttempts: len(schedule) + 2, // the schedule can never outlast the policy
				Clock:       clock,
			})
			if err != nil {
				t.Fatal(err)
			}
			var bag dataspace.Bag
			paid := 0
			if seq {
				for tu, err := range c.CrawlSeq(context.Background(), "", 0) {
					if err != nil {
						t.Fatalf("schedule %v: CrawlSeq failed: %v", schedule, err)
					}
					bag = append(bag, tu)
				}
				for _, st := range h.Sessions().Stats() {
					if st.Token == "tok" {
						paid = st.Queries
					}
				}
			} else {
				res, err := c.Crawl(context.Background(), "", 0, nil)
				if err != nil {
					t.Fatalf("schedule %v: crawl failed: %v", schedule, err)
				}
				bag, paid = res.Tuples, res.Queries
			}
			if !bag.EqualMultiset(ref.Tuples) {
				t.Fatalf("schedule %v (seq %v): stitched bag has %d tuples, reference %d (duplicate or lost tuples)", schedule, seq, len(bag), len(ref.Tuples))
			}
			if paid != ref.Queries {
				t.Fatalf("schedule %v (seq %v): paid %d queries, fault-free reference %d", schedule, seq, paid, ref.Queries)
			}
			if got := h.Sessions().TotalQueries(); got != ref.Queries {
				t.Fatalf("schedule %v (seq %v): server-side paid count %d, want %d", schedule, seq, got, ref.Queries)
			}
		}
	})
}

// FuzzCrawlResumeStitching is the resume-cursor property: however a
// well-formed stream of n tuples is cut (the client breaks after cut
// tuples) and resumed (the server suppresses the skip=cut prefix and
// reports it in Skipped), the stitched sequence equals the uninterrupted
// stream — no tuple re-received, none lost. The fuzzer controls the tuple
// values, the stream length and the cut point.
func FuzzCrawlResumeStitching(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{7, 7, 7}, uint8(0))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{255, 0, 128, 9}, uint8(200))
	schema := fuzzSchema()
	f.Fuzz(func(t *testing.T, vals []byte, cutRaw uint8) {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		// Build the full, well-formed stream: one tuple per input byte.
		tuples := make([]dataspace.Tuple, len(vals))
		var full strings.Builder
		for i, v := range vals {
			tuples[i] = dataspace.Tuple{int64(1 + int(v)%4), int64(int(v)%201 - 100)}
			line, _ := json.Marshal(wire.CrawlEvent{Tuple: tuples[i], Queries: i + 1})
			full.Write(line)
			full.WriteByte('\n')
		}
		terminal := func(skipped int) string {
			line, _ := json.Marshal(wire.CrawlEvent{Done: true, Queries: len(vals), Tuples: len(vals) - skipped, Skipped: skipped})
			return string(line)
		}

		cut := int(cutRaw)
		if cut > len(tuples) {
			cut = len(tuples)
		}

		// First pass: the client breaks after cut tuples.
		var got []dataspace.Tuple
		_, stopped, err := crawlStream(schema, strings.NewReader(full.String()+terminal(0)), nil, func(tu dataspace.Tuple) bool {
			got = append(got, tu)
			return len(got) < cut || cut == 0
		})
		if cut > 0 && cut <= len(tuples) {
			if err != nil {
				t.Fatalf("first pass: %v", err)
			}
			if !stopped && cut < len(tuples) {
				t.Fatal("break did not stop the stream")
			}
		}

		// Resume pass: the server suppresses the first len(got) tuples.
		skip := len(got)
		var resume strings.Builder
		for i := skip; i < len(tuples); i++ {
			line, _ := json.Marshal(wire.CrawlEvent{Tuple: tuples[i], Queries: i + 1})
			resume.Write(line)
			resume.WriteByte('\n')
		}
		res, _, err := crawlStream(schema, strings.NewReader(resume.String()+terminal(skip)), nil, func(tu dataspace.Tuple) bool {
			got = append(got, tu)
			return true
		})
		if err != nil {
			t.Fatalf("resume pass: %v", err)
		}
		if res.Skipped != skip {
			t.Fatalf("resume reported %d skipped, want %d", res.Skipped, skip)
		}
		if len(got) != len(tuples) {
			t.Fatalf("stitched stream has %d tuples, want %d", len(got), len(tuples))
		}
		for i := range got {
			if !got[i].Equal(tuples[i]) {
				t.Fatalf("stitched tuple %d differs (duplicate or lost tuple at the cursor)", i)
			}
		}
	})
}
