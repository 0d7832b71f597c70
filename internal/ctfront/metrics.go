package ctfront

import "ctrise/internal/metrics"

// writeMetrics renders the frontend's counters for GET /metrics:
// per-backend routing and health state, SCT verification failures, and
// the admission controller's shed counters (every shed reason emitted,
// zeros included, for stable series).
func (f *Frontend) writeMetrics(w *metrics.Writer) {
	health := f.Health()
	type family struct {
		name, help, typ string
		value           func(h BackendHealth) uint64
	}
	families := []family{
		{"ctfront_backend_successes_total", "Verified SCTs collected per backend.", "counter",
			func(h BackendHealth) uint64 { return h.Successes }},
		{"ctfront_backend_failures_total", "Failed submissions per backend (transport errors, timeouts, bad SCTs).", "counter",
			func(h BackendHealth) uint64 { return h.Failures }},
		{"ctfront_backend_bad_scts_total", "SCTs rejected by signature verification per backend.", "counter",
			func(h BackendHealth) uint64 { return h.BadSCTs }},
		{"ctfront_backend_healthy", "Whether the backend is outside its failure backoff (1 = plannable).", "gauge",
			func(h BackendHealth) uint64 { return bool01(h.Healthy) }},
		{"ctfront_backend_verified", "Whether an SCT verifier is configured for the backend.", "gauge",
			func(h BackendHealth) uint64 { return bool01(h.Verified) }},
		{"ctfront_backend_weight", "Committed routing weight (lower routes earlier).", "gauge",
			func(h BackendHealth) uint64 { return uint64(h.Weight) }},
		{"ctfront_backend_consecutive_fails", "Consecutive failures driving the backend's current backoff.", "gauge",
			func(h BackendHealth) uint64 { return uint64(h.ConsecutiveFails) }},
	}
	for _, fam := range families {
		w.Family(fam.name, fam.help, fam.typ)
		for _, h := range health {
			w.Uint(fam.name, fam.value(h), "backend", h.Name)
		}
	}

	stats := f.AdmissionStats()
	w.Family("ctfront_admitted_total", "HTTP submissions admitted to the fan-out engine.", "counter")
	w.Uint("ctfront_admitted_total", stats.Admitted)
	w.Family("ctfront_shed_total", "HTTP submissions refused, by admission mechanism.", "counter")
	w.Uint("ctfront_shed_total", stats.ShedInflight, "reason", "inflight")
	w.Uint("ctfront_shed_total", stats.ShedGlobalRate, "reason", "rate_global")
	w.Uint("ctfront_shed_total", stats.ShedClientRate, "reason", "rate_client")
	w.Uint("ctfront_shed_total", stats.ShedDraining, "reason", "drain")
	if stats.Inflight >= 0 {
		w.Family("ctfront_inflight", "HTTP submissions currently executing.", "gauge")
		w.Uint("ctfront_inflight", uint64(stats.Inflight))
	}
	w.Family("ctfront_draining", "Whether the drain gate is refusing new submissions.", "gauge")
	w.Uint("ctfront_draining", bool01(f.drainGate().Draining()))
	w.Family("ctfront_weight_commits_total", "CommitWeights runs folding load observations into routing.", "counter")
	w.Uint("ctfront_weight_commits_total", f.WeightCommits())
}

func bool01(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
