// Package journal makes crawls resumable. Real hidden databases cap the
// queries a client may issue per day (the very constraint that motivates the
// paper's cost metric), so a complete crawl may have to span several query
// budgets. A Journal records every (query, response) pair that reached the
// server; because the crawling algorithms are deterministic and the server's
// responses are stable, re-running the algorithm with the journal replayed
// in front of the server fast-forwards for free through everything already
// paid for and continues issuing only new queries.
//
// The journal serializes in a crash-safe checksummed framing (see
// framed.go): per-record CRC32 with a length-prefixed trailer, so a crawl
// interrupted by hiddendb.ErrQuotaExceeded — or by a crash mid-write — can
// persist its state to disk and resume days later; a torn or corrupted
// file recovers its longest valid prefix instead of losing the session.
// SaveFile/LoadFile are the canonical write-temp-fsync-rename persistence
// helpers.
//
// A journal is also a memo, and Server is the repository's one memo
// decorator: because the server's answers are stable, the recorded answer
// to a query is the answer. Lookups go through a sharded memo.Cache keyed
// by Query.AppendKey, so a replay allocates nothing. Answer and
// AnswerBatch single-flight their misses through one memo.Flight, so
// however concurrent calls split a query between the two paths, it is
// paid once. Every session stack runs behind its journal, and so does
// every in-process crawl that re-asks queries (core's slice-cover family
// and hybrid), with a fresh journal per crawl.
package journal

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/memo"
	"hidb/internal/wire"
)

// Journal is a replayable log of server responses, keyed by canonical
// query. Safe for concurrent use, so it composes with the parallel crawler.
type Journal struct {
	schema *dataspace.Schema
	k      int

	// answers is the lookup side: recorded answers by binary query key.
	answers *memo.Cache[hiddendb.Result]

	// mu orders writers and guards log, the insertion-ordered record that
	// WriteTo serializes. Readers of answers never take it.
	mu  sync.RWMutex
	log []entry
}

// entry is one recorded (query, response) pair.
type entry struct {
	q   dataspace.Query
	res hiddendb.Result
}

// New creates an empty journal for a server with the given schema and
// return limit.
func New(schema *dataspace.Schema, k int) *Journal {
	return &Journal{
		schema:  schema,
		k:       k,
		answers: memo.New[hiddendb.Result](0, nil),
	}
}

// Schema returns the schema the journal was created for.
func (j *Journal) Schema() *dataspace.Schema { return j.schema }

// K returns the return limit the journal was created for.
func (j *Journal) K() int { return j.k }

// Len returns the number of recorded queries.
func (j *Journal) Len() int {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return len(j.log)
}

// Lookup returns the recorded response for q, if any. A hit allocates
// nothing.
func (j *Journal) Lookup(q dataspace.Query) (hiddendb.Result, bool) {
	res, _, ok := j.probe(q)
	return res, ok
}

// probe is Lookup in memo.Cache.Probe's shape: on a miss it returns q's
// memo key, for record.
func (j *Journal) probe(q dataspace.Query) (hiddendb.Result, string, bool) {
	return j.answers.Probe(q.AppendKey)
}

// Record stores the response for q. Recording the same query twice is a
// no-op (responses are stable by the problem setup).
func (j *Journal) Record(q dataspace.Query, res hiddendb.Result) {
	j.record(string(q.AppendKey(nil)), q, res)
}

// record stores res under q's memo key and appends it to the log, unless
// the key is already recorded.
func (j *Journal) record(key string, q dataspace.Query, res hiddendb.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.answers.Set(key, res) {
		j.log = append(j.log, entry{q: q, res: res})
	}
}

// entryMsg is the wire form of one journal entry.
type entryMsg struct {
	Query  wire.QueryMsg  `json:"query"`
	Result wire.ResultMsg `json:"result"`
}

// WriteTo serializes the journal in the checksummed v2 format (see
// framed.go): length-prefixed records with per-record CRC32 and a trailer
// carrying the entry count, so a torn or bit-flipped file is recoverable
// to its longest valid prefix. It implements io.WriterTo.
func (j *Journal) WriteTo(w io.Writer) (int64, error) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.writeToV2(w)
}

// ReadFrom deserializes a journal written by WriteTo. A damaged file does
// not fail wholesale: the longest valid prefix is recovered and returned
// alongside a *CorruptionError describing the tear (errors.As to detect
// it; the journal is safe to use, only the damaged tail's queries must be
// re-paid). Every error is a *CorruptionError; the journal is nil only
// when not even the magic and header survived.
func ReadFrom(r io.Reader) (*Journal, error) {
	return readFromV2(bufio.NewReader(r))
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Server wraps a hiddendb.Server with a journal: recorded queries are
// answered from the journal at zero cost, new ones are forwarded and
// recorded. It implements hiddendb.Server.
type Server struct {
	inner   hiddendb.Server
	journal *Journal
	flight  *memo.Flight[hiddendb.Result]
	replays atomic.Int64
}

// Wrap builds the journaling view. The journal's schema and k must match
// the server's.
func Wrap(inner hiddendb.Server, j *Journal) (*Server, error) {
	if j.K() != inner.K() {
		return nil, fmt.Errorf("journal: recorded k=%d but server has k=%d", j.K(), inner.K())
	}
	if j.Schema().String() != inner.Schema().String() {
		return nil, fmt.Errorf("journal: schema mismatch: %s vs %s", j.Schema(), inner.Schema())
	}
	return &Server{inner: inner, journal: j, flight: memo.NewFlight[hiddendb.Result]()}, nil
}

// Answer implements hiddendb.Server. Replays are free, allocate nothing and
// ignore ctx — they touch no remote resource — while forwarded queries
// honour it.
//
// Concurrent misses on the same query are single-flighted, with each other
// and with AnswerBatch: only one caller pays the inner server, the rest
// wait and replay the recorded answer. Without this, a client that
// reconnects while its previous (severed) crawl is still winding down
// server-side could race it to the same journal miss and be charged twice
// for one logical query.
func (s *Server) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	res, key, ok := s.journal.probe(q)
	if ok {
		s.replays.Add(1)
		return res, nil
	}
	res, via, err := s.flight.Do(ctx, key, s.recorded(key),
		func() (hiddendb.Result, error) {
			r, err := s.inner.Answer(ctx, q)
			if err == nil {
				s.journal.record(key, q, r)
			}
			return r, err
		})
	if err == nil && via != memo.Led {
		s.replays.Add(1)
	}
	return res, err
}

// recorded is the flight's lookup for key: the journal's recorded answer.
func (s *Server) recorded(key string) func() (hiddendb.Result, bool) {
	return func() (hiddendb.Result, bool) { return s.journal.answers.GetString(key) }
}

// batchMiss is one distinct journal miss of a batch. It is led when this
// call leads its key in the flight (else another call does), done once res
// holds its answer, and paid when this call's inner server paid for it.
type batchMiss struct {
	q               dataspace.Query
	key             string
	pos             int // its first occurrence in the batch
	led, done, paid bool
	res             hiddendb.Result
}

// AnswerBatch implements hiddendb.Server with the sequential contract:
// journaled queries and repeats within the batch are replays, exactly as if
// the batch had been issued query by query. Each distinct miss is claimed
// in the flight Answer uses, so a query another call is paying for right
// now is waited for, never paid twice. The misses this call leads go to
// the inner server as one batch, and every led key is recorded and
// released, answered or not, before this call waits on any other call's
// key — so crossing batches cannot deadlock. A followed key whose leader
// fails is paid here through a one-query inner batch. On failure the
// result is the answered prefix plus the error; a led miss past the prefix
// may already be paid, and is journaled, so the retry replays it.
func (s *Server) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	out := make([]hiddendb.Result, len(qs))
	missOf := make([]int, len(qs)) // qs[i]'s index in misses, -1 for a replay
	var misses []batchMiss
	var led []dataspace.Query
	seen := make(map[string]int)
	for i, q := range qs {
		res, key, ok := s.journal.probe(q)
		if j, dup := seen[key]; !ok && dup {
			missOf[i] = j
			continue
		}
		via := memo.Hit
		if !ok {
			res, via = s.flight.Claim(key, s.recorded(key))
		}
		if via == memo.Hit {
			out[i], missOf[i] = res, -1
			continue
		}
		seen[key], missOf[i] = len(misses), len(misses)
		misses = append(misses, batchMiss{q: q, key: key, pos: i, led: via == memo.Led})
		if via == memo.Led {
			led = append(led, q)
		}
	}

	var err error
	if len(led) > 0 {
		var res []hiddendb.Result
		res, err = s.inner.AnswerBatch(ctx, led)
		n := 0
		for j := range misses {
			if m := &misses[j]; m.led {
				if n < len(res) {
					m.res, m.done, m.paid = res[n], true, true
					s.journal.record(m.key, m.q, m.res)
				}
				s.flight.Release(m.key, m.res, m.done)
				n++
			}
		}
	}

	replays := 0
	defer func() { s.replays.Add(int64(replays)) }()
	for i, j := range missOf {
		if j < 0 {
			replays++
			continue
		}
		m := &misses[j]
		if !m.done && !m.led {
			if ferr := s.follow(ctx, m); ferr != nil {
				err = ferr
			}
		}
		if !m.done { // the sequential prefix ends here
			return out[:i], err
		}
		out[i] = m.res
		if i != m.pos || !m.paid {
			replays++
		}
	}
	return out, err
}

// follow resolves a miss another call leads: it waits for that leader's
// answer or, if the leader fails, pays for the query itself.
func (s *Server) follow(ctx context.Context, m *batchMiss) error {
	res, via, err := s.flight.Do(ctx, m.key, s.recorded(m.key), func() (hiddendb.Result, error) {
		rs, err := s.inner.AnswerBatch(ctx, []dataspace.Query{m.q})
		if len(rs) == 0 {
			return hiddendb.Result{}, err
		}
		s.journal.record(m.key, m.q, rs[0])
		return rs[0], nil
	})
	if err == nil {
		m.res, m.done, m.paid = res, true, via == memo.Led
	}
	return err
}

// K implements hiddendb.Server.
func (s *Server) K() int { return s.inner.K() }

// Schema implements hiddendb.Server.
func (s *Server) Schema() *dataspace.Schema { return s.inner.Schema() }

// Replays returns how many queries were answered from the journal.
func (s *Server) Replays() int { return int(s.replays.Load()) }
