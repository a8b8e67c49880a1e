// Package session gives each API token its own view of one shared hidden
// database — the server-side counterpart of the paper's per-client cost
// model. A real hidden site enforces its query budget per IP or API key;
// a server that kept one global quota and one shared replay log would let
// two crawlers corrupt each other's budgets and journals. Here every token
// owns a private decorator stack over the shared (possibly sharded) store:
//
//	journal wrapper → Quota → RateLimited → Counting → shared store
//
// reading left to right in wrapping order, outermost first. The journal is
// the session's only memo: a query the session has already paid for is
// replayed from it for free — above the rate limiter, so replays are never
// throttled; a new query must be admitted by the token's budget first and
// only then waits for the token bucket (when Config.RatePerSecond is
// set), so an over-budget request 429s immediately instead of waiting out
// a throttle for queries that would be rejected anyway. Once answered it
// is journaled; a wait cancelled mid-batch refunds both the budget and
// the rate tokens, since nothing was issued. Config.RateClasses names
// qps/burst tiers resolved per token — gold keys faster than free keys —
// without touching budgets or counts. The Counting innermost layer is therefore exactly the paper's
// cost metric, per client: queries that actually reached the hidden
// database on this token's budget. Every layer honours the request ctx, so
// one client hanging up cancels only its own in-flight work — including a
// rate-limit wait — never another session's.
//
// Sessions live in a Table — an LRU with TTL safe for concurrent batches.
// An idle session expires after the TTL (modelling the budget window of
// real sites: evicting the session resets the token's quota, the way a
// per-day budget resets overnight), and the table caps the number of live
// sessions, evicting least-recently-used tokens under pressure. When a
// journal directory is configured, an evicted session's journal is
// persisted and reloaded on the token's next request, so a crawl that
// exhausted one budget fast-forwards for free through everything already
// paid and spends the fresh budget only on new queries — the journal
// package's resumability contract, now enforced server-side per client.
//
// Config.SharedCache opts a table into fleet mode: one hiddendb.Shared
// answer tier under every session's private stack, so knowledge any token
// paid for once serves the whole fleet. SharedFree splices it between the
// journal and the quota (shared hits and waits cost the asker nothing);
// SharedCharged splices it between the counter and the store (hits save
// the store's work but are still debited). The default, SharedOff, builds
// exactly the stack above — paper-mode accounting is bit-identical.
package session

import (
	"container/list"
	"encoding/base64"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// DefaultMaxSessions caps the live-session count when Config.MaxSessions
// is zero.
const DefaultMaxSessions = 1024

// Config tunes a Table. The zero value means: no per-client quota, no TTL
// expiry, DefaultMaxSessions live sessions, no journal persistence.
type Config struct {
	// Quota is each client's query budget per session lifetime; zero
	// means unlimited. Journal replays and shared-tier hits are free — the
	// budget counts only queries that reach the shared store.
	Quota int
	// RatePerSecond throttles each client's quota-admitted queries to a
	// sustained rate (token bucket with RateBurst capacity); zero
	// disables throttling. A throttled query waits inside its own
	// request ctx, so a client that hangs up stops waiting immediately,
	// and the wait's budget and rate tokens are refunded.
	RatePerSecond float64
	// RateBurst is the token-bucket capacity when RatePerSecond is set:
	// how many queries a client may issue back-to-back after idling.
	// Zero means the ceiling of RatePerSecond (at least 1).
	RateBurst int
	// RateClasses names per-token qps/burst tiers — the QoS knob of a
	// real API: gold keys sustain more queries per second than free
	// keys. Each token is resolved to a class name by RateClassFor (or,
	// when nil, by its prefix up to the first '-': token "gold-alice"
	// joins class "gold"); a token resolving to no listed class falls
	// back to the flat RatePerSecond/RateBurst. Classes shape timing
	// only — budgets, journals and the paper's query counts are
	// untouched. A duplicated class name is resolved by the last entry.
	RateClasses []RateClass
	// RateClassFor, when non-nil, overrides the default prefix resolver:
	// it maps a token to the name of its rate class ("" for none).
	RateClassFor func(token string) string
	// TTL evicts a session idle for longer; zero disables expiry. With a
	// quota, the TTL is the budget window: a token returning after expiry
	// gets a fresh session, hence a fresh budget (and its reloaded
	// journal, when persistence is on).
	TTL time.Duration
	// MaxSessions bounds the live sessions; the least recently used is
	// evicted beyond it. Zero means DefaultMaxSessions.
	MaxSessions int
	// JournalDir, when non-empty, persists each session's journal there
	// on eviction and reloads it when the token reconnects. The
	// directory is created on first use.
	JournalDir string
	// SharedCache selects the fleet-wide shared answer tier. SharedOff
	// (the default) keeps every stack exactly as documented above — paper
	// mode, bit-identical accounting. SharedFree inserts the tier between
	// each session's journal and its quota, so an answer some other
	// token already paid for is served free; SharedCharged inserts it
	// between the counter and the store, so a hit saves the store's work
	// but still debits the asking token.
	SharedCache hiddendb.SharedCachePolicy
	// SharedCacheBytes bounds the shared tier's resident size (LRU
	// eviction beyond it); zero is unbounded. Ignored when SharedCache is
	// SharedOff.
	SharedCacheBytes int64
}

// RateClass is one named qps/burst tier of Config.RateClasses.
type RateClass struct {
	// Name is the class identifier tokens resolve to.
	Name string
	// PerSecond is the class's sustained query rate; zero or negative
	// leaves class members unthrottled (an explicit "unlimited" tier).
	PerSecond float64
	// Burst is the token-bucket capacity; zero means the ceiling of
	// PerSecond (at least 1), as with Config.RateBurst.
	Burst int
}

// Session is one token's private view of the shared server. Its Server
// stack is safe for concurrent batches, so one client may overlap
// requests.
type Session struct {
	token    string
	srv      hiddendb.Server
	journal  *journal.Journal
	jsrv     *journal.Server
	quota    *hiddendb.Quota
	counting *hiddendb.Counting
	// shared is this session's window onto the fleet-wide answer tier;
	// nil in paper mode (Config.SharedCache == SharedOff).
	shared *hiddendb.SharedView
	// rateClass is the name of the resolved rate class, "" when the
	// token fell back to the table-wide rate.
	rateClass string

	lastSeen time.Duration // Table clock reading, guarded by the owning Table's mutex
}

// RateClass returns the name of the session's resolved rate class, ""
// when the token uses the table-wide rate.
func (s *Session) RateClass() string { return s.rateClass }

// Token returns the session's API token ("" for the anonymous session).
func (s *Session) Token() string { return s.token }

// Server returns the session's decorator stack. All queries of this token
// must flow through it.
func (s *Session) Server() hiddendb.Server { return s.srv }

// Queries returns the queries this client paid for — the paper's cost
// metric, per token. Journal replays are not counted.
func (s *Session) Queries() int { return s.counting.Queries() }

// Resolved returns how many paid queries resolved.
func (s *Session) Resolved() int { return s.counting.Resolved() }

// Overflowed returns how many paid queries overflowed.
func (s *Session) Overflowed() int { return s.counting.Overflowed() }

// Remaining returns the unused budget, or -1 when the session is
// unlimited.
func (s *Session) Remaining() int {
	if s.quota == nil {
		return -1
	}
	return s.quota.Remaining()
}

// Replays returns how many queries were answered from the journal.
func (s *Session) Replays() int { return s.jsrv.Replays() }

// SharedHits returns how many of this session's queries were answered
// from an already-populated shared-tier entry (0 in paper mode).
func (s *Session) SharedHits() int {
	if s.shared == nil {
		return 0
	}
	return s.shared.Hits()
}

// SharedWaits returns how many of this session's queries were answered by
// waiting out another session's in-flight fetch (0 in paper mode).
func (s *Session) SharedWaits() int {
	if s.shared == nil {
		return 0
	}
	return s.shared.Waits()
}

// SharedLeads returns how many shared-tier entries this session led — paid
// on its own budget and published for the fleet (0 in paper mode).
func (s *Session) SharedLeads() int {
	if s.shared == nil {
		return 0
	}
	return s.shared.Leads()
}

// JournalLen returns the number of (query, response) pairs journaled.
func (s *Session) JournalLen() int { return s.journal.Len() }

// Journal exposes the session's journal (tests and persistence).
func (s *Session) Journal() *journal.Journal { return s.journal }

// Stats is a point-in-time snapshot of one session's counters.
type Stats struct {
	Token      string
	Queries    int
	Resolved   int
	Overflowed int
	Remaining  int // -1 when unlimited
	Replays    int
	JournalLen int
	// SharedHits, SharedWaits and SharedLeads are the session's traffic
	// through the fleet-wide shared tier; all zero in paper mode.
	SharedHits  int
	SharedWaits int
	SharedLeads int
	// RateClass names the token's resolved qps tier, "" for the default.
	RateClass string
}

func (s *Session) stats() Stats {
	return Stats{
		Token:       s.token,
		RateClass:   s.rateClass,
		Queries:     s.Queries(),
		Resolved:    s.Resolved(),
		Overflowed:  s.Overflowed(),
		Remaining:   s.Remaining(),
		Replays:     s.Replays(),
		JournalLen:  s.JournalLen(),
		SharedHits:  s.SharedHits(),
		SharedWaits: s.SharedWaits(),
		SharedLeads: s.SharedLeads(),
	}
}

// Table maps API tokens to live sessions: an LRU with TTL over one shared
// server. Safe for concurrent use; the per-session server stacks it hands
// out are safe for concurrent batches.
type Table struct {
	shared hiddendb.Server
	cfg    Config
	// fleet is the table-wide shared answer tier every session's stack
	// reads through; nil in paper mode (cfg.SharedCache == SharedOff).
	fleet *hiddendb.Shared
	// classes indexes cfg.RateClasses by name (later entries win).
	classes map[string]RateClass

	mu       sync.Mutex
	sessions map[string]*list.Element // token → lru element holding *Session
	lru      *list.List               // front = most recently used
	// evicted and evictedQueries accumulate the sessions (and their paid
	// queries) already evicted, so aggregate stats survive eviction.
	evicted        int
	evictedQueries int
	// persistErr remembers the last journal-persistence failure (evictions
	// happen inside unrelated Gets and cannot surface an error to that
	// caller).
	persistErr error
	// recovered counts journals reloaded from a torn/corrupted file via
	// longest-valid-prefix recovery.
	recovered int
	// clock times TTL expiry and every session's rate-limit refill and
	// waits: hiddendb.Wall, swappable in tests for a *hiddendb.SimClock.
	clock hiddendb.Clock
}

// NewTable builds a session table over the shared server.
func NewTable(shared hiddendb.Server, cfg Config) *Table {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	t := &Table{
		shared:   shared,
		cfg:      cfg,
		clock:    hiddendb.Wall,
		sessions: make(map[string]*list.Element),
		lru:      list.New(),
	}
	if cfg.SharedCache != hiddendb.SharedOff {
		t.fleet = hiddendb.NewShared(cfg.SharedCacheBytes)
	}
	if len(cfg.RateClasses) > 0 {
		t.classes = make(map[string]RateClass, len(cfg.RateClasses))
		for _, cls := range cfg.RateClasses {
			t.classes[cls.Name] = cls
		}
	}
	return t
}

// resolveClass maps a token to its rate class, if any: the configured
// resolver (or the default '-'-prefix rule) names a class, and the name
// must be listed in Config.RateClasses.
func (t *Table) resolveClass(token string) (RateClass, bool) {
	if len(t.classes) == 0 {
		return RateClass{}, false
	}
	var name string
	if t.cfg.RateClassFor != nil {
		name = t.cfg.RateClassFor(token)
	} else if i := strings.IndexByte(token, '-'); i > 0 {
		name = token[:i]
	}
	if name == "" {
		return RateClass{}, false
	}
	cls, ok := t.classes[name]
	return cls, ok
}

// ClassCounts returns the live sessions per resolved rate class (tokens
// on the default rate are not listed); nil when no class is in use.
func (t *Table) ClassCounts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out map[string]int
	for el := t.lru.Front(); el != nil; el = el.Next() {
		if c := el.Value.(*Session).rateClass; c != "" {
			if out == nil {
				out = make(map[string]int)
			}
			out[c]++
		}
	}
	return out
}

// SharedCache returns the table-wide shared answer tier, or nil in paper
// mode. The tier outlives every session: evicting a token discards its
// stack but never the answers it led, and its in-flight fetches complete
// normally (or hand leadership to a waiting follower), so eviction can
// never orphan the fleet.
func (t *Table) SharedCache() *hiddendb.Shared { return t.fleet }

// Get returns the token's live session, creating it (and reloading its
// persisted journal, if any) on first use. Every call counts as activity:
// it refreshes the TTL and the LRU position. Expired and over-cap sessions
// are evicted on the way. Journal file I/O — loading on a miss, persisting
// the evicted — happens outside the table lock, so one token's disk never
// stalls every other client's request.
func (t *Table) Get(token string) (*Session, error) {
	t.mu.Lock()
	now := t.clock.Now()
	victims := t.sweepLocked(now)
	if el, ok := t.sessions[token]; ok {
		sess := el.Value.(*Session)
		sess.lastSeen = now
		t.lru.MoveToFront(el)
		t.mu.Unlock()
		t.persistAll(victims)
		return sess, nil
	}
	t.mu.Unlock()
	t.persistAll(victims)

	// Build the session (and read its persisted journal) unlocked; when
	// two requests race on a fresh token, the first to insert wins and
	// the loser's build is discarded — safe, since nothing was journaled
	// by the discarded incarnation.
	sess, err := t.newSession(token)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if el, ok := t.sessions[token]; ok {
		existing := el.Value.(*Session)
		existing.lastSeen = t.clock.Now()
		t.lru.MoveToFront(el)
		t.mu.Unlock()
		return existing, nil
	}
	sess.lastSeen = t.clock.Now()
	t.sessions[token] = t.lru.PushFront(sess)
	victims = victims[:0]
	for t.lru.Len() > t.cfg.MaxSessions {
		victims = append(victims, t.evictLocked(t.lru.Back()))
	}
	t.mu.Unlock()
	t.persistAll(victims)
	return sess, nil
}

// Touch refreshes the token's TTL and LRU position without creating a
// session. A long-running server-side crawl touches its session per paid
// query, so activity inside one request keeps the session live exactly as
// activity across requests does.
func (t *Table) Touch(token string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.sessions[token]; ok {
		el.Value.(*Session).lastSeen = t.clock.Now()
		t.lru.MoveToFront(el)
	}
}

// newSession builds the token's decorator stack over the shared server,
// reloading a persisted journal when one exists.
func (t *Table) newSession(token string) (*Session, error) {
	jnl, err := t.loadJournal(token)
	if err != nil {
		return nil, err
	}
	if jnl == nil {
		jnl = journal.New(t.shared.Schema(), t.shared.K())
	}
	// store is the innermost layer below the counter. In paper mode and
	// SharedFree it is the shared store itself; under SharedCharged the
	// fleet tier sits here, below the counter, so a shared hit saves the
	// store's work but is still counted and debited like any paid query.
	store := t.shared
	var sharedView *hiddendb.SharedView
	if t.cfg.SharedCache == hiddendb.SharedCharged {
		sharedView = t.fleet.View(store)
		store = sharedView
	}
	counting := hiddendb.NewCounting(store)
	var view hiddendb.Server = counting
	// The token's rate class, when one resolves, replaces the table-wide
	// rate wholesale — including an explicit "unlimited" class with
	// PerSecond 0. Classes change timing only, never counts.
	rate, burst, className := t.cfg.RatePerSecond, t.cfg.RateBurst, ""
	if cls, ok := t.resolveClass(token); ok {
		rate, burst, className = cls.PerSecond, cls.Burst, cls.Name
	}
	if rate > 0 {
		if burst <= 0 {
			burst = int(math.Ceil(rate))
		}
		limited, err := hiddendb.NewRateLimited(view, rate, burst, t.clock)
		if err != nil {
			return nil, fmt.Errorf("session: token %q: %w", token, err)
		}
		view = limited
	}
	var quota *hiddendb.Quota
	if t.cfg.Quota > 0 {
		quota = hiddendb.NewQuota(view, t.cfg.Quota)
		view = quota
	}
	// Under SharedFree the fleet tier sits above the quota and counter:
	// a shared hit or a wait on another token's in-flight fetch returns
	// before touching either, so only the leading token pays.
	if t.cfg.SharedCache == hiddendb.SharedFree {
		sharedView = t.fleet.View(view)
		view = sharedView
	}
	jsrv, err := journal.Wrap(view, jnl)
	if err != nil {
		return nil, fmt.Errorf("session: token %q: %w", token, err)
	}
	return &Session{
		token:     token,
		srv:       jsrv,
		journal:   jnl,
		jsrv:      jsrv,
		quota:     quota,
		counting:  counting,
		shared:    sharedView,
		rateClass: className,
	}, nil
}

// sweepLocked evicts every session idle past the TTL, returning them for
// the caller to persist once the lock is released. Expired sessions
// cluster at the LRU tail, since last-use order is idle order.
func (t *Table) sweepLocked(now time.Duration) []*Session {
	if t.cfg.TTL <= 0 {
		return nil
	}
	var victims []*Session
	for el := t.lru.Back(); el != nil; el = t.lru.Back() {
		if now-el.Value.(*Session).lastSeen < t.cfg.TTL {
			break
		}
		victims = append(victims, t.evictLocked(el))
	}
	return victims
}

// evictLocked removes one session, folding its counters into the evicted
// accumulators, and returns it for persistence outside the lock. Queries
// still in flight on the evicted stack complete safely; they are merely no
// longer captured by the persisted journal snapshot (they would be re-paid
// on reconnect, which is always safe — the journal is an optimization,
// never the source of truth).
func (t *Table) evictLocked(el *list.Element) *Session {
	sess := el.Value.(*Session)
	t.lru.Remove(el)
	delete(t.sessions, sess.token)
	t.evicted++
	t.evictedQueries += sess.Queries()
	return sess
}

// persistAll writes the evicted sessions' journals, recording the last
// failure. Must be called without the table lock held.
func (t *Table) persistAll(victims []*Session) {
	for _, sess := range victims {
		if err := t.persistJournal(sess); err != nil {
			t.mu.Lock()
			t.persistErr = err
			t.mu.Unlock()
		}
	}
}

// Len returns the number of live sessions.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

// Has reports whether the token currently owns a live session, without
// creating one or refreshing its TTL.
func (t *Table) Has(token string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.sessions[token]
	return ok
}

// Full reports whether the table is at its live-session cap, i.e. whether
// admitting a new token would evict the least recently used session. A
// load-shedding server checks this to turn away new clients instead of
// churning established ones.
func (t *Table) Full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len() >= t.cfg.MaxSessions
}

// Evicted returns how many sessions have been evicted so far.
func (t *Table) Evicted() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// TotalQueries returns the aggregate paid query count across live and
// evicted sessions.
func (t *Table) TotalQueries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.evictedQueries
	for el := t.lru.Front(); el != nil; el = el.Next() {
		total += el.Value.(*Session).Queries()
	}
	return total
}

// Stats snapshots every live session's counters, sorted by token.
func (t *Table) Stats() []Stats {
	t.mu.Lock()
	out := make([]Stats, 0, t.lru.Len())
	for el := t.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Session).stats())
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// RecoveredJournals returns how many sessions were reloaded from a
// damaged journal file via longest-valid-prefix recovery (the damaged
// originals are quarantined next to the journal directory's files).
func (t *Table) RecoveredJournals() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recovered
}

// PersistErr returns the last journal-persistence failure observed during
// an eviction, if any (evictions run inside unrelated requests and cannot
// report errors inline).
func (t *Table) PersistErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.persistErr
}

// Close persists every live session's journal (when a journal directory is
// configured) and empties the table. It returns the last persistence
// error, including any pending one from earlier evictions.
func (t *Table) Close() error {
	t.mu.Lock()
	var victims []*Session
	for el := t.lru.Back(); el != nil; el = t.lru.Back() {
		victims = append(victims, t.evictLocked(el))
	}
	t.mu.Unlock()
	t.persistAll(victims)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.persistErr
}

// journalPath names the token's journal file. Tokens are arbitrary
// strings, so the name is the URL-safe base64 of the token — collision
// free and filesystem safe.
func (t *Table) journalPath(token string) string {
	name := "s-" + base64.RawURLEncoding.EncodeToString([]byte(token)) + ".journal"
	return filepath.Join(t.cfg.JournalDir, name)
}

// loadJournal reloads the token's persisted journal, or returns nil when
// persistence is off or no journal exists. A torn or corrupted file — a
// crash mid-persist, a flipped bit — never fails the session: the longest
// valid prefix is recovered (journal.LoadFile quarantines the damaged
// original as <path>.corrupt), the recovery is counted in
// RecoveredJournals, and only the damaged tail's queries are re-paid. A
// journal recorded against a different schema or return limit is an
// operator error and is reported, not silently discarded.
func (t *Table) loadJournal(token string) (*journal.Journal, error) {
	if t.cfg.JournalDir == "" {
		return nil, nil
	}
	jnl, err := journal.LoadFile(t.journalPath(token))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	var ce *journal.CorruptionError
	if errors.As(err, &ce) {
		t.mu.Lock()
		t.recovered++
		t.mu.Unlock()
		return jnl, nil // jnl is the recovered prefix; nil means start fresh
	}
	if err != nil {
		return nil, fmt.Errorf("session: token %q journal: %w", token, err)
	}
	return jnl, nil
}

// persistJournal crash-safely writes the session's journal next to its
// final path (write temp, fsync, rename — see journal.SaveFile). Empty
// journals are skipped — nothing to resume.
func (t *Table) persistJournal(sess *Session) error {
	if t.cfg.JournalDir == "" || sess.journal.Len() == 0 {
		return nil
	}
	if err := journal.SaveFile(t.journalPath(sess.token), sess.journal); err != nil {
		return fmt.Errorf("session: persisting %q: %w", sess.token, err)
	}
	return nil
}
