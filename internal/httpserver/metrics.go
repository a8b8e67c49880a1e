// GET /metrics: the handler's introspection in the Prometheus text
// exposition format (version 0.0.4), assembled from the same snapshots
// GET /stats serializes as JSON — no new dependencies, no new counters
// beyond the QoS atomics the serving path already maintains. The series
// are written in a fixed order with sorted label values, so the output
// for a quiesced handler is byte-stable (the golden test pins it).
//
// Series:
//
//	hidb_requests_total                query-carrying HTTP round trips
//	hidb_queries_total                 paid form queries (all clients)
//	hidb_inflight                      query-carrying requests being served
//	hidb_draining                      1 once Drain was called
//	hidb_quota_rejected_total          429 responses
//	hidb_shed_total{reason=...}        503s: capacity | draining | session_table_full
//	hidb_batch_width_*                 histogram of /batch request widths
//	hidb_sessions_live                 live sessions
//	hidb_sessions_evicted_total        sessions evicted by TTL/LRU
//	hidb_sessions_recovered_journals_total  journals reloaded via prefix recovery
//	hidb_rate_class_sessions{class=...}     live sessions per rate class
//	hidb_shared_cache_*                fleet tier counters (fleet mode)
//	hidb_plan_path_total{path=...}     executed selections by access path
//	hidb_engine_info{kind=...}         store engine identity
package httpserver

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"

	"hidb/internal/index"
)

// metricsWriter accumulates one exposition document. Every series goes
// through meta + sample so the # HELP / # TYPE headers always precede
// their first sample, as the format requires.
type metricsWriter struct {
	buf bytes.Buffer
}

func (m *metricsWriter) meta(name, help, typ string) {
	fmt.Fprintf(&m.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels is a preformatted {...} block or
// empty. Values are integers at heart, so %v never prints exponents.
func (m *metricsWriter) sample(name, labels string, v any) {
	fmt.Fprintf(&m.buf, "%s%s %v\n", name, labels, v)
}

func (m *metricsWriter) counter(name, help string, v any) {
	m.meta(name, help, "counter")
	m.sample(name, "", v)
}

func (m *metricsWriter) gauge(name, help string, v any) {
	m.meta(name, help, "gauge")
	m.sample(name, "", v)
}

// handleMetrics serves the Prometheus text exposition. Like /stats and
// /healthz it bypasses admission control: a draining or saturated server
// must stay observable.
func (h *Handler) handleMetrics(w http.ResponseWriter) {
	var m metricsWriter

	m.counter("hidb_requests_total", "Query-carrying HTTP round trips served (/query, /batch, /crawl).", h.Requests())
	m.counter("hidb_queries_total", "Paid form queries served across all clients.", h.Queries())
	m.gauge("hidb_inflight", "Query-carrying requests currently being served.", h.InFlight())
	drain := 0
	if h.draining.Load() {
		drain = 1
	}
	m.gauge("hidb_draining", "1 once the handler entered drain mode (one-way).", drain)
	m.counter("hidb_quota_rejected_total", "Requests rejected with 429: the caller's query budget ran dry.", h.quota429.Load())

	m.meta("hidb_shed_total", "Requests shed with 503, by reason.", "counter")
	m.sample("hidb_shed_total", `{reason="capacity"}`, h.shedCapacity.Load())
	m.sample("hidb_shed_total", `{reason="draining"}`, h.shedDraining.Load())
	m.sample("hidb_shed_total", `{reason="session_table_full"}`, h.shedFull.Load())

	m.meta("hidb_batch_width", "Queries per /batch request.", "histogram")
	for i, le := range batchWidthBounds {
		m.sample("hidb_batch_width_bucket", fmt.Sprintf(`{le="%d"}`, le), h.batchWidths[i].Load())
	}
	m.sample("hidb_batch_width_bucket", `{le="+Inf"}`, h.batchWidths[len(batchWidthBounds)].Load())
	m.sample("hidb_batch_width_sum", "", h.batchSum.Load())
	m.sample("hidb_batch_width_count", "", h.batchCount.Load())

	m.gauge("hidb_sessions_live", "Live sessions in the table.", h.table.Len())
	m.counter("hidb_sessions_evicted_total", "Sessions evicted by TTL expiry or LRU pressure.", h.table.Evicted())
	m.counter("hidb_sessions_recovered_journals_total", "Session journals reloaded via longest-valid-prefix recovery.", h.table.RecoveredJournals())
	if classes := h.table.ClassCounts(); len(classes) > 0 {
		names := make([]string, 0, len(classes))
		for name := range classes {
			names = append(names, name)
		}
		sort.Strings(names)
		m.meta("hidb_rate_class_sessions", "Live sessions per named rate class.", "gauge")
		for _, name := range names {
			m.sample("hidb_rate_class_sessions", fmt.Sprintf("{class=%q}", name), classes[name])
		}
	}
	if sc := h.table.SharedCache(); sc != nil {
		st := sc.Stats()
		m.counter("hidb_shared_cache_hits_total", "Queries answered from a populated shared-tier entry.", st.Hits)
		m.counter("hidb_shared_cache_waits_total", "Queries answered by waiting out another session's in-flight fetch.", st.Waits)
		m.counter("hidb_shared_cache_leads_total", "Queries paid by one session and published for the fleet.", st.Leads)
		m.gauge("hidb_shared_cache_entries", "Resident shared-tier entries.", st.Entries)
		m.gauge("hidb_shared_cache_bytes", "Resident shared-tier bytes (0 when unbounded).", st.Bytes)
		m.counter("hidb_shared_cache_evictions_total", "Shared-tier entries dropped by the byte bound.", st.Evictions)
		m.gauge("hidb_shared_cache_inflight", "Queries being led right now.", st.InFlight)
	}

	if ps, ok := h.srv.(interface{ PlanStats() index.PlanStats }); ok {
		if st := ps.PlanStats(); len(st.Paths) > 0 {
			paths := make([]string, 0, len(st.Paths))
			for p := range st.Paths {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			m.meta("hidb_plan_path_total", "Executed selections by access path.", "counter")
			for _, p := range paths {
				m.sample("hidb_plan_path_total", fmt.Sprintf("{path=%q}", p), st.Paths[p])
			}
		}
	}

	if es := h.engineStats(); es != nil {
		m.meta("hidb_engine_info", "Store engine identity (value is always 1).", "gauge")
		m.sample("hidb_engine_info", fmt.Sprintf("{kind=%q}", es.Kind), 1)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(m.buf.Bytes())
}
