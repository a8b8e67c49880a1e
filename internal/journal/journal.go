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
// A journal is also a memo: because the server's answers are stable, the
// recorded answer to a query is the answer. Server is a hiddendb.Memo
// over the journal's answers, the same single-flight the fleet tier's
// SharedView runs over the shared cache. Lookups go through a sharded
// memo.Cache keyed by Query.AppendKey, so a replay allocates nothing.
// Answer and AnswerBatch single-flight their misses through the Memo's
// one memo.Flight, so however concurrent calls split a query between the
// two paths, it is paid once. Every session stack runs behind its journal,
// and so does every in-process crawl that re-asks queries (core's
// slice-cover family and hybrid), with a fresh journal per crawl.
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
// recorded. As a hiddendb.Memo, it waits for a miss another call is paying
// right now instead of paying it twice — else a client reconnecting while
// its severed crawl still winds down server-side could be charged twice
// for one query. It implements hiddendb.Server.
type Server struct {
	memo    hiddendb.Memo
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
	return &Server{memo: hiddendb.Memo{
		Inner:  inner,
		Cache:  j.answers,
		Flight: memo.NewFlight[hiddendb.Result](),
		Record: j.record,
	}}, nil
}

// Answer implements hiddendb.Server. Replays are free, allocate nothing and
// ignore ctx — they touch no remote resource — while a miss honours ctx.
func (s *Server) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	res, via, err := s.memo.Answer(ctx, q)
	if err == nil && via != memo.Led {
		s.replays.Add(1)
	}
	return res, err
}

// AnswerBatch implements hiddendb.Server with the sequential contract:
// journaled queries and repeats within the batch are replays, exactly as if
// the batch had been issued query by query, and the misses it leads reach
// the inner server as one batch (see hiddendb.Memo.AnswerBatch).
func (s *Server) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	res, t, err := s.memo.AnswerBatch(ctx, qs)
	if n := t.Hits + t.Waits; n > 0 {
		s.replays.Add(int64(n))
	}
	return res, err
}

// K implements hiddendb.Server.
func (s *Server) K() int { return s.memo.Inner.K() }

// Schema implements hiddendb.Server.
func (s *Server) Schema() *dataspace.Schema { return s.memo.Inner.Schema() }

// Replays returns how many queries were answered from the journal.
func (s *Server) Replays() int { return int(s.replays.Load()) }
