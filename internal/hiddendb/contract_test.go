package hiddendb_test

import (
	"context"
	"maps"
	"testing"
	"time"

	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// stack is one server composition under the batch contract, with a
// snapshot of the counters its layers keep.
type stack struct {
	srv      hiddendb.Server
	counters func() map[string]int
}

// TestAnswerBatchMatchesSequential is the batch contract: for every server
// in the stack — plain and sharded Local, each decorator, the journal and
// the fleet tier under both policies — a batch is answered exactly as the
// same queries are by a bare Local's native Answer, and N Answer calls
// leave the same counters as one N-query batch. Only a round trip counter
// tells them apart: N trips against one.
func TestAnswerBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	sch := hiddendb.NewTestSchema(t)
	bag := hiddendb.NewTestBag(2000, 21)
	qs := hiddendb.NewBatchQueries(sch, 64, 22)

	local := func(shards int) *hiddendb.Local {
		srv, err := hiddendb.NewLocalSharded(sch, bag, 25, 5, shards)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	want := make([]hiddendb.Result, len(qs))
	for i, q := range qs {
		res, err := local(1).Answer(ctx, q)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want[i] = res
	}

	counting := func(srv hiddendb.Server) (*hiddendb.Counting, func(map[string]int)) {
		c := hiddendb.NewCounting(srv)
		return c, func(m map[string]int) { m["queries"] = c.Queries() }
	}
	quota := func(srv hiddendb.Server) (*hiddendb.Quota, func(map[string]int)) {
		q := hiddendb.NewQuota(srv, 1<<20)
		return q, func(m map[string]int) { m["remaining"] = q.Remaining() }
	}
	view := func(srv hiddendb.Server) (*hiddendb.SharedView, func(map[string]int)) {
		v := hiddendb.NewShared(0).View(srv)
		return v, func(m map[string]int) {
			m["hits"], m["waits"], m["leads"] = v.Hits(), v.Waits(), v.Leads()
		}
	}
	snapshot := func(srv hiddendb.Server, notes ...func(map[string]int)) stack {
		return stack{srv, func() map[string]int {
			m := map[string]int{}
			for _, note := range notes {
				note(m)
			}
			return m
		}}
	}
	build := map[string]func() stack{
		"local":   func() stack { return snapshot(local(1)) },
		"sharded": func() stack { return snapshot(local(4)) },
		"decorated": func() stack {
			c, nc := counting(local(3))
			q, nq := quota(c)
			return snapshot(q, nc, nq)
		},
		"journal": func() stack {
			c, nc := counting(local(1))
			j := journal.New(sch, 25)
			srv, err := journal.Wrap(c, j)
			if err != nil {
				t.Fatal(err)
			}
			return snapshot(srv, nc, func(m map[string]int) {
				m["replays"], m["journal"] = srv.Replays(), j.Len()
			})
		},
		"shared-free": func() stack {
			c, nc := counting(local(1))
			q, nq := quota(c)
			v, nv := view(q)
			return snapshot(v, nc, nq, nv)
		},
		"shared-charged": func() stack {
			v, nv := view(local(1))
			c, nc := counting(v)
			q, nq := quota(c)
			return snapshot(q, nc, nq, nv)
		},
		"rate-limited": func() stack {
			c, nc := counting(local(1))
			r, err := hiddendb.NewRateLimited(c, 1e6, 64, hiddendb.Wall)
			if err != nil {
				t.Fatal(err)
			}
			return snapshot(r, nc)
		},
		"latency": func() stack {
			c, nc := counting(local(1))
			trips := &hiddendb.TripCounter{Server: c}
			l := hiddendb.NewLatency(trips, time.Microsecond, hiddendb.Wall)
			return snapshot(l, nc, func(m map[string]int) { m["trips"] = trips.Trips() })
		},
		"sim-latency": func() stack {
			c, nc := counting(local(1))
			trips := &hiddendb.TripCounter{Server: c}
			l := hiddendb.NewLatency(trips, time.Millisecond, hiddendb.NewSimClock())
			return snapshot(l, nc, func(m map[string]int) { m["trips"] = trips.Trips() })
		},
		"flaky-no-faults": func() stack {
			c, nc := counting(local(1))
			f := hiddendb.NewFlaky(c, hiddendb.FlakyConfig{Seed: 7})
			return snapshot(f, nc, func(m map[string]int) {
				m["attempts"], m["injected"] = hiddendb.FlakyAttempts(f), hiddendb.FlakyInjected(f)
			})
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			seq := mk()
			for i, q := range qs {
				res, err := seq.srv.Answer(ctx, q)
				if err != nil {
					t.Fatalf("Answer %d: %v", i, err)
				}
				if !hiddendb.SameResult(res, want[i]) {
					t.Fatalf("Answer %d differs from the bare Local's", i)
				}
			}
			batch := mk()
			got, err := batch.srv.AnswerBatch(ctx, qs)
			if err != nil {
				t.Fatalf("AnswerBatch: %v", err)
			}
			if len(got) != len(qs) {
				t.Fatalf("batch answered %d of %d", len(got), len(qs))
			}
			for i := range got {
				if !hiddendb.SameResult(got[i], want[i]) {
					t.Fatalf("batch result %d differs from the bare Local's Answer", i)
				}
			}
			seqN, batchN := seq.counters(), batch.counters()
			if _, ok := seqN["trips"]; ok {
				if seqN["trips"] != len(qs) || batchN["trips"] != 1 {
					t.Errorf("trips: %d Answer calls made %d, one batch %d; want %d and 1",
						len(qs), seqN["trips"], batchN["trips"], len(qs))
				}
				delete(seqN, "trips")
				delete(batchN, "trips")
			}
			if !maps.Equal(seqN, batchN) {
				t.Errorf("counters after %d Answer calls %v, after one batch %v", len(qs), seqN, batchN)
			}
		})
	}
}
