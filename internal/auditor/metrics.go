package auditor

import (
	"net/http"

	"ctrise/internal/metrics"
)

// MetricsHandler serves the auditor's counters in the Prometheus text
// exposition format at GET /metrics: per-log verified tree size, monitor
// lag, entry/poll/spot-check throughput, operational error counts, and
// per-class alert counters (all classes emitted, zeros included, so a
// scrape sees stable series).
func (a *Auditor) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler(a.writeMetrics))
	return mux
}

// writeMetrics renders every metric family.
func (a *Auditor) writeMetrics(w *metrics.Writer) {
	type gauge struct {
		name, help, typ string
		value           func(la *logAuditor) uint64
	}
	families := []gauge{
		{"ctaudit_tree_size", "Latest verified STH tree size per log.", "gauge",
			func(la *logAuditor) uint64 {
				if sth := la.mon.LastSTH(); sth != nil {
					return sth.TreeHead.TreeSize
				}
				return 0
			}},
		{"ctaudit_lag_entries", "Entries behind the latest verified STH (verified size minus consumption cursor).", "gauge",
			func(la *logAuditor) uint64 {
				sth := la.mon.LastSTH()
				if sth == nil {
					return 0
				}
				next := la.mon.NextIndex()
				if sth.TreeHead.TreeSize <= next {
					return 0
				}
				return sth.TreeHead.TreeSize - next
			}},
		{"ctaudit_entries_total", "Entries streamed and audited per log this process.", "counter",
			func(la *logAuditor) uint64 { return la.entries }},
		{"ctaudit_polls_total", "Audit polls per log.", "counter",
			func(la *logAuditor) uint64 { return la.polls }},
		{"ctaudit_poll_errors_total", "Operational (non-alert) poll failures per log.", "counter",
			func(la *logAuditor) uint64 { return la.pollErrors }},
		{"ctaudit_spot_checks_total", "Inclusion-proof spot checks per log.", "counter",
			func(la *logAuditor) uint64 { return la.spotChecks }},
	}
	for _, fam := range families {
		w.Family(fam.name, fam.help, fam.typ)
		for _, name := range a.names {
			la := a.logs[name]
			la.mu.Lock()
			v := fam.value(la)
			la.mu.Unlock()
			w.Uint(fam.name, v, "log", name)
		}
	}
	w.Family("ctaudit_alerts_total", "Deduplicated misbehavior alerts per log and class.", "counter")
	for _, name := range a.names {
		la := a.logs[name]
		la.mu.Lock()
		counts := make(map[AlertClass]uint64, len(la.alertCount))
		for c, n := range la.alertCount {
			counts[c] = n
		}
		la.mu.Unlock()
		for _, class := range Classes {
			w.Uint("ctaudit_alerts_total", counts[class], "log", name, "class", string(class))
		}
	}
}
