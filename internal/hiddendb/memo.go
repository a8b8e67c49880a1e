package hiddendb

import (
	"context"

	"hidb/internal/dataspace"
	"hidb/internal/memo"
)

// Memo is the single-flight both memo decorators — a session's journal
// (journal.Server) and the fleet tier (SharedView) — answer through: a
// query is answered from Cache when it can be, else paid through Inner and
// recorded. Misses are single-flighted through Flight, so however
// concurrent calls split a query between them, Inner is asked it once.
type Memo struct {
	Inner Server
	// Cache holds the answers by Query.AppendKey key.
	Cache *memo.Cache[Result]
	// Flight single-flights the misses; memos sharing a Cache share it.
	Flight *memo.Flight[Result]
	// Record stores a paid answer to q under key, visible to Cache before
	// it returns (memo.Flight.Do's contract).
	Record func(key string, q dataspace.Query, res Result)
}

// Tally counts how a call's answers were obtained, exactly as a
// sequential caller would have obtained them: Hits from the cache (a
// repeat within a batch included), Waits from another call's in-flight
// lead, and Leads paid through Inner by this call.
type Tally struct{ Hits, Waits, Leads int }

func (t *Tally) add(via memo.Via) {
	switch via {
	case memo.Led:
		t.Leads++
	case memo.Waited:
		t.Waits++
	default:
		t.Hits++
	}
}

// Answer answers q alone. A cache hit allocates nothing. A miss waits for
// a call that already leads q; otherwise, or if that leader fails, it
// leads q itself through a one-query Inner batch.
func (m *Memo) Answer(ctx context.Context, q dataspace.Query) (Result, memo.Via, error) {
	res, key, ok := m.Cache.Probe(q.AppendKey)
	if ok {
		return res, memo.Hit, nil
	}
	return m.miss(ctx, q, key)
}

func (m *Memo) lookup(key string) func() (Result, bool) {
	return func() (Result, bool) { return m.Cache.GetString(key) }
}

// miss is Answer for a q the cache missed under key.
func (m *Memo) miss(ctx context.Context, q dataspace.Query, key string) (Result, memo.Via, error) {
	return m.Flight.Do(ctx, key, m.lookup(key), func() (Result, error) {
		res, err := Answer(ctx, m.Inner, q)
		if err == nil {
			m.Record(key, q, res)
		}
		return res, err
	})
}

// batchMiss is one distinct cache miss of a batch, first asked at pos.
// Its via is how it was claimed, then how it was answered once done.
type batchMiss struct {
	q    dataspace.Query
	key  string
	pos  int
	via  memo.Via
	done bool
	res  Result
}

// AnswerBatch answers qs with the sequential contract of
// Server.AnswerBatch and tallies how. Each distinct miss is claimed in the
// flight. The misses this call leads go to Inner as one batch, and every
// led key is recorded and released, answered or not, before this call
// waits on any other call's key, so crossing batches cannot deadlock. A
// followed key whose leader fails is paid here, as Answer pays it. On
// failure the result is the answered prefix plus the error; a led miss
// past the prefix may already be paid, and is recorded, so a retry hits
// it. Leads counts every query this call paid, Hits and Waits the prefix.
//
// Paying past the prefix keeps the books only where Record is the payer's
// own ledger, as in the journal. A memo whose caller records just the
// answers it gets back (SharedView, under a session's journal) answers a
// batch one query at a time through Answer instead.
func (m *Memo) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]Result, Tally, error) {
	var t Tally
	out := make([]Result, len(qs))
	missOf := make([]int, len(qs)) // qs[i]'s index in misses, -1 for a hit
	var misses []batchMiss
	var led []dataspace.Query
	seen := make(map[string]int)
	for i, q := range qs {
		res, key, ok := m.Cache.Probe(q.AppendKey)
		if j, dup := seen[key]; !ok && dup {
			missOf[i] = j
			continue
		}
		via := memo.Hit
		if !ok {
			res, via = m.Flight.Claim(key, m.lookup(key))
		}
		if via == memo.Hit {
			out[i], missOf[i] = res, -1
			continue
		}
		seen[key], missOf[i] = len(misses), len(misses)
		misses = append(misses, batchMiss{q: q, key: key, pos: i, via: via})
		if via == memo.Led {
			led = append(led, q)
		}
	}

	var err error
	if len(led) > 0 {
		var res []Result
		res, err = m.Inner.AnswerBatch(ctx, led)
		n := 0
		for j := range misses {
			if b := &misses[j]; b.via == memo.Led {
				if n < len(res) {
					b.res, b.done = res[n], true
					m.Record(b.key, b.q, b.res)
					t.Leads++
				}
				m.Flight.Release(b.key, b.res, b.done)
				n++
			}
		}
	}

	for i, j := range missOf {
		if j < 0 {
			t.Hits++
			continue
		}
		b := &misses[j]
		if !b.done && b.via == memo.Waited {
			res, via, ferr := m.miss(ctx, b.q, b.key)
			if ferr != nil {
				err = ferr
			} else {
				b.res, b.via, b.done = res, via, true
				if via == memo.Led {
					t.Leads++
				}
			}
		}
		if !b.done { // the sequential prefix ends here
			return out[:i], t, err
		}
		out[i] = b.res
		if i != b.pos {
			t.Hits++
		} else if b.via != memo.Led { // leads are tallied when paid
			t.add(b.via)
		}
	}
	return out, t, err
}
