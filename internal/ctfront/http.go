package ctfront

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/drain"
	"ctrise/internal/metrics"
	"ctrise/internal/policy"
)

// JSON wire types for the frontend API, served under /ctfront/v1.
// Requests reuse the ct/v1 add-chain body (ctlog.AddChainRequest), so a
// client that can talk to one log can talk to the frontend; responses
// carry one SCT per contributing log instead of one.

// AddChainResponse is the frontend's answer to add-chain and
// add-pre-chain: the policy-compliant SCT bundle.
type AddChainResponse struct {
	SCTs []BundleSCTResponse `json:"scts"`
}

// BundleSCTResponse is one bundle SCT: the ct/v1 SCT fields plus the
// issuing log's identity.
type BundleSCTResponse struct {
	LogName  string `json:"log_name"`
	Operator string `json:"operator"`
	ctlog.AddChainResponse
}

// HealthResponse is the /ctfront/v1/health body.
type HealthResponse struct {
	Backends []BackendHealthResponse `json:"backends"`
}

// BackendHealthResponse is one backend's health snapshot on the wire.
type BackendHealthResponse struct {
	Name             string `json:"name"`
	Operator         string `json:"operator"`
	GoogleOperated   bool   `json:"google_operated"`
	Healthy          bool   `json:"healthy"`
	Verified         bool   `json:"verified"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	BackoffUntil     string `json:"backoff_until,omitempty"`
	Successes        uint64 `json:"successes"`
	Failures         uint64 `json:"failures"`
	BadSCTs          uint64 `json:"bad_scts"`
	Weight           int    `json:"weight"`
}

// Handler returns the frontend's HTTP surface, built once per Frontend:
// POST /ctfront/v1/add-chain and /ctfront/v1/add-pre-chain (admission-
// controlled), GET /ctfront/v1/health, and GET /metrics (Prometheus
// text, written by internal/metrics). The whole chain sits behind a drain
// gate: once Shutdown begins, new submissions get 503 + Retry-After while
// in-flight ones finish, and the reads stay available so a rolling
// restart can be watched from outside.
func (f *Frontend) Handler() http.Handler {
	f.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /ctfront/v1/add-chain", f.withAdmission(f.handleAddChain))
		mux.HandleFunc("POST /ctfront/v1/add-pre-chain", f.withAdmission(f.handleAddPreChain))
		mux.HandleFunc("GET /ctfront/v1/health", f.handleHealth)
		mux.Handle("GET /metrics", metrics.Handler(f.writeMetrics))
		f.gate = drain.NewGate(mux, f.cfg.RetryAfter)
		f.handler = f.gate
	})
	return f.handler
}

// drainGate returns the gate guarding the HTTP surface, building the
// chain if no Handler call has yet.
func (f *Frontend) drainGate() *drain.Gate {
	f.Handler()
	return f.gate
}

// Shutdown drains srv, which serves Handler: new HTTP submissions are
// refused, the admitted ones get up to timeout to finish, then srv
// shuts down (see drain.Gate.Shutdown).
func (f *Frontend) Shutdown(srv *http.Server, timeout time.Duration) error {
	return f.drainGate().Shutdown(srv, timeout)
}

// withAdmission applies the admission controller to one submission
// handler: rate limits answer 429, capacity shedding 503, both with
// Retry-After so a well-behaved client backs off exactly as long as
// the frontend asks.
func (f *Frontend) withAdmission(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, release := f.admission.admit(clientHost(r))
		switch v {
		case admitOK:
			defer release()
			h(w, r)
		case shedInflight:
			f.refuse(w, http.StatusServiceUnavailable, "ctfront: submission capacity exhausted, retry later")
		case shedGlobalRate:
			f.refuse(w, http.StatusTooManyRequests, "ctfront: global rate limit exceeded")
		case shedClientRate:
			f.refuse(w, http.StatusTooManyRequests, "ctfront: client rate limit exceeded")
		}
	}
}

// refuse sheds a request with the frontend's Retry-After hint.
func (f *Frontend) refuse(w http.ResponseWriter, code int, msg string) {
	drain.Refuse(w, code, msg, f.cfg.RetryAfter)
}

// clientHost extracts the per-client rate-limit key: the remote host
// without the ephemeral port.
func clientHost(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// handleAddChain and handleAddPreChain parse their bodies with ctlog's
// own readers, so a frontend refuses what a log would: 413 over the
// body cap, 400 for a malformed chain.
func (f *Frontend) handleAddChain(w http.ResponseWriter, r *http.Request) {
	cert, ok := ctlog.ReadAddChain(w, r)
	if !ok {
		return
	}
	bundle, err := f.AddChain(r.Context(), cert)
	f.writeResult(w, bundle, err)
}

func (f *Frontend) handleAddPreChain(w http.ResponseWriter, r *http.Request) {
	tbs, ikh, ok := ctlog.ReadAddPreChain(w, r)
	if !ok {
		return
	}
	bundle, err := f.AddPreChain(r.Context(), ikh, tbs)
	f.writeResult(w, bundle, err)
}

func (f *Frontend) handleHealth(w http.ResponseWriter, _ *http.Request) {
	health := f.Health()
	resp := HealthResponse{Backends: make([]BackendHealthResponse, len(health))}
	for i, h := range health {
		r := BackendHealthResponse{
			Name:             h.Name,
			Operator:         h.Operator,
			GoogleOperated:   h.GoogleOperated,
			Healthy:          h.Healthy,
			Verified:         h.Verified,
			ConsecutiveFails: h.ConsecutiveFails,
			Successes:        h.Successes,
			Failures:         h.Failures,
			BadSCTs:          h.BadSCTs,
			Weight:           h.Weight,
		}
		if !h.BackoffUntil.IsZero() {
			r.BackoffUntil = h.BackoffUntil.UTC().Format("2006-01-02T15:04:05.000Z07:00")
		}
		resp.Backends[i] = r
	}
	writeJSON(w, resp)
}

// writeResult answers a submission with its bundle, or its error.
func (f *Frontend) writeResult(w http.ResponseWriter, bundle *Bundle, err error) {
	if err != nil {
		f.httpError(w, err)
		return
	}
	resp := AddChainResponse{SCTs: make([]BundleSCTResponse, 0, len(bundle.SCTs))}
	for _, s := range bundle.SCTs {
		sig, err := s.SCT.Signature.Serialize()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp.SCTs = append(resp.SCTs, BundleSCTResponse{
			LogName:  s.LogName,
			Operator: s.Operator,
			AddChainResponse: ctlog.AddChainResponse{
				SCTVersion: uint8(s.SCT.SCTVersion),
				ID:         base64.StdEncoding.EncodeToString(s.SCT.LogID[:]),
				Timestamp:  s.SCT.Timestamp,
				Extensions: base64.StdEncoding.EncodeToString(s.SCT.Extensions),
				Signature:  base64.StdEncoding.EncodeToString(sig),
			},
		})
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will just break.
		return
	}
}

func (f *Frontend) httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, policy.ErrUnsatisfiable), errors.Is(err, ErrSubmission):
		// The pool cannot currently produce a compliant set — a capacity
		// condition, not a caller error. Retry-After tells well-behaved
		// clients when to try again instead of hot-looping.
		f.refuse(w, http.StatusServiceUnavailable, err.Error())
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
