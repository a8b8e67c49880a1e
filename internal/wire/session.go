// Session, crawl and stats messages of the wire protocol.
//
// A client identifies itself with an API token. The convention is the
// standard HTTP one — an "Authorization: Bearer <token>" header on every
// request — with a body-level Token field on the /batch and /crawl
// envelopes as a fallback for clients that cannot set headers. When both
// are present the header wins. The server keys quota, journal, and query
// counters by that token; requests without a token share the anonymous
// session.
package wire

import (
	"net/http"
	"strings"
)

// AuthHeader is the HTTP header carrying the client's API token.
const AuthHeader = "Authorization"

// bearerPrefix is the scheme tag of the token convention.
const bearerPrefix = "Bearer "

// SetBearer stamps the token onto the header set in the Authorization:
// Bearer convention. An empty token leaves the headers untouched.
func SetBearer(h http.Header, token string) {
	if token == "" {
		return
	}
	h.Set(AuthHeader, bearerPrefix+token)
}

// Bearer extracts the API token from the Authorization header, or ""
// when the header is absent or carries a different scheme.
func Bearer(h http.Header) string {
	v := h.Get(AuthHeader)
	if len(v) > len(bearerPrefix) && strings.EqualFold(v[:len(bearerPrefix)], bearerPrefix) {
		return v[len(bearerPrefix):]
	}
	return ""
}

// CrawlRequest is the request body of the /crawl endpoint: the server runs
// the named crawling algorithm itself against the caller's session and
// streams progress back as NDJSON CrawlEvent lines. An empty Algorithm
// selects the paper's recommended algorithm for the schema.
type CrawlRequest struct {
	Algorithm string `json:"algorithm,omitempty"`
	// Token is the body-level fallback of the Authorization: Bearer
	// convention.
	Token string `json:"token,omitempty"`
	// Skip is the resume cursor: the number of tuples the client already
	// received from an earlier (interrupted) stream of the same crawl.
	// The server re-runs the algorithm — the journal replays the paid
	// prefix for free — but omits the first Skip tuples from the stream
	// instead of re-sending them. Meaningful only when the algorithm (and
	// its deterministic output order) matches the earlier request's.
	Skip int `json:"skip,omitempty"`
}

// CrawlEvent is one NDJSON line of the /crawl response stream.
//
// Progress lines carry one extracted tuple plus the session's paid query
// count at the moment of extraction. The stream ends with exactly one
// terminal line (Done == true) summarizing the crawl; a crawl that fails
// mid-stream reports the failure there, since the HTTP status is long
// committed — QuotaExceeded marks the caller's session budget as the
// cause, so the client can resume after the budget resets.
type CrawlEvent struct {
	// Tuple is one extracted tuple, attribute values in schema order
	// (progress lines only).
	Tuple []int64 `json:"tuple,omitempty"`
	// Queries is the session's paid query count so far.
	Queries int `json:"queries"`
	// Done marks the terminal summary line.
	Done bool `json:"done,omitempty"`
	// Tuples, Resolved and Overflowed summarize the crawl (terminal
	// line). Tuples counts the tuples streamed in this response — the
	// ones suppressed by the request's Skip cursor are reported in
	// Skipped instead.
	Tuples     int `json:"tuples,omitempty"`
	Resolved   int `json:"resolved,omitempty"`
	Overflowed int `json:"overflowed,omitempty"`
	// Skipped echoes how many already-delivered tuples the resume cursor
	// suppressed (terminal line).
	Skipped int `json:"skipped,omitempty"`
	// Replays, SharedHits and SharedWaits break down how this crawl's
	// queries were answered for free (terminal line): from the session's
	// journal, an already-populated fleet-tier entry, or by waiting out
	// another token's in-flight fetch. Deltas over this crawl only, not
	// session lifetime totals. The shared fields appear only in fleet mode.
	Replays     int `json:"replays,omitempty"`
	SharedHits  int `json:"sharedHits,omitempty"`
	SharedWaits int `json:"sharedWaits,omitempty"`
	// Engine identifies the store engine that served the crawl (terminal
	// line; absent when the backing server does not expose engine
	// introspection).
	Engine *EngineStatsMsg `json:"engine,omitempty"`
	// Error reports a crawl that could not complete (terminal line).
	Error string `json:"error,omitempty"`
	// QuotaExceeded marks an Error caused by the session's query budget.
	QuotaExceeded bool `json:"quotaExceeded,omitempty"`
}

// EngineStatsMsg identifies the server's store engine in the /stats
// response and the /crawl terminal event: "mem" for the in-memory columnar
// store, "disk" for the disk-resident one.
type EngineStatsMsg struct {
	// Kind is "mem" or "disk".
	Kind string `json:"kind"`
}

// StatsMsg is the response of the GET /stats endpoint.
type StatsMsg struct {
	// Queries is the aggregate paid query count across all clients
	// (including sessions already evicted).
	Queries int `json:"queries"`
	// Requests is the number of query-carrying HTTP round trips served.
	Requests int `json:"requests"`
	// Sessions lists the live per-token sessions.
	Sessions []SessionStatsMsg `json:"sessions,omitempty"`
	// EvictedSessions counts sessions already evicted by TTL or LRU
	// pressure; their queries remain in the aggregate.
	EvictedSessions int `json:"evictedSessions,omitempty"`
	// Planner carries the store's query-planner counters when the backing
	// server exposes them (a local store does; a remote proxy may not).
	Planner *PlannerStatsMsg `json:"planner,omitempty"`
	// Engine identifies the store engine ("mem" or "disk"); absent when
	// the backing server does not expose engine introspection.
	Engine *EngineStatsMsg `json:"engine,omitempty"`
	// SharedCache carries the fleet-wide shared answer tier's aggregate
	// counters; absent in paper mode (shared cache off).
	SharedCache *SharedCacheStatsMsg `json:"sharedCache,omitempty"`
}

// SharedCacheStatsMsg is the fleet-wide shared answer tier's aggregate
// introspection in the /stats response.
type SharedCacheStatsMsg struct {
	// Hits counts queries answered from an already-populated entry; Waits
	// queries answered by waiting out another session's in-flight fetch.
	Hits  int `json:"hits"`
	Waits int `json:"waits"`
	// Leads counts queries some session paid and published — the tier's
	// misses, each charged to exactly one token.
	Leads int `json:"leads"`
	// Entries and Bytes describe the cache's occupancy (Bytes is 0 for an
	// unbounded tier); Evictions counts entries the byte bound dropped.
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes,omitempty"`
	Evictions int   `json:"evictions,omitempty"`
	// InFlight is the number of queries being led right now.
	InFlight int `json:"inFlight,omitempty"`
}

// PlannerStatsMsg is the store's query-planner introspection in the /stats
// response: how often each access path (scan, posting, gallop, range,
// bitmap) actually executed.
type PlannerStatsMsg struct {
	// Paths counts executed selections by access path name.
	Paths map[string]int64 `json:"paths,omitempty"`
}

// SessionStatsMsg is one live session's counters in the /stats response.
type SessionStatsMsg struct {
	Token string `json:"token"`
	// Queries counts the queries this client paid for (journal replays and
	// shared-tier hits are free, mirroring the paper's cost metric).
	Queries    int `json:"queries"`
	Resolved   int `json:"resolved,omitempty"`
	Overflowed int `json:"overflowed,omitempty"`
	// Remaining is the unused per-client budget, -1 when unlimited.
	Remaining int `json:"remaining"`
	// Replays counts queries answered from the session's journal.
	Replays int `json:"replays,omitempty"`
	// JournalLen is the number of (query, response) pairs journaled.
	JournalLen int `json:"journalLen,omitempty"`
	// SharedHits, SharedWaits and SharedLeads are this session's traffic
	// through the fleet-wide shared tier (fleet mode only): answers read
	// from a populated entry, answers waited out of another token's
	// in-flight fetch, and entries this token paid for and published.
	SharedHits  int `json:"sharedHits,omitempty"`
	SharedWaits int `json:"sharedWaits,omitempty"`
	SharedLeads int `json:"sharedLeads,omitempty"`
	// RateClass names the token's resolved qps tier (absent on the
	// default rate) — see session.Config.RateClasses.
	RateClass string `json:"rateClass,omitempty"`
}
