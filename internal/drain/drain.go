// Package drain is the admission layer shared by the repo's HTTP
// servers (cmd/ctlogd, cmd/ctfront) and the log's capacity limit: one
// token bucket (Bucket), one refusal (Refuse: 429/503 + Retry-After)
// and the graceful-drain protocol (Gate). On SIGTERM a server stops
// admitting new mutating work with 503 + Retry-After — a signal
// well-behaved CT submitters turn into failover, not an error — while
// the requests already in flight run to completion. Only once the gate
// reports idle does the listener shut down, so a rolling restart never
// drops an acknowledged submission mid-handshake.
package drain

import (
	"context"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Bucket is a token bucket refilled by elapsed clock time. It starts
// full and refills only when now moves forward: a clock stepping back
// neither refills nor moves the refill anchor, so a virtual clock can
// drive it as well as the wall clock. It is not safe for concurrent
// use; callers hold their own lock.
type Bucket struct {
	rate, burst float64
	tokens      float64
	at          time.Time // refill anchor; the zero time before first use
}

// NewBucket returns a full bucket refilled at rate tokens per second
// and holding at most burst. A burst <= 0 means max(rate, 1): one
// second of tokens, but never less than the one token a Take needs.
func NewBucket(rate, burst float64) *Bucket {
	if burst <= 0 {
		burst = max(rate, 1)
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

func (b *Bucket) refill(now time.Time) {
	if now.After(b.at) {
		b.tokens = min(b.burst, b.tokens+now.Sub(b.at).Seconds()*b.rate)
		b.at = now
	}
}

// Take consumes one token if the bucket holds one at now.
func (b *Bucket) Take(now time.Time) bool {
	b.refill(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Full reports whether the bucket has refilled to its burst by now: its
// owner has been idle long enough that dropping the bucket loses
// nothing.
func (b *Bucket) Full(now time.Time) bool {
	b.refill(now)
	return b.tokens >= b.burst
}

// FullAt reports when the bucket will have refilled to its burst if
// nothing takes from it (its refill anchor once it is full), rounded up
// to the nanosecond so that Full holds from then on. Refilling leaves it
// where it is and Take only moves it later, so the earliest FullAt over
// a set of buckets bounds when any of them can next be Full.
func (b *Bucket) FullAt() time.Time {
	if b.tokens >= b.burst {
		return b.at
	}
	return b.at.Add(time.Duration(math.Ceil((b.burst - b.tokens) / b.rate * float64(time.Second))))
}

// Refuse answers a request the server will not serve now — 429 for a
// rate limit, 503 for a capacity or drain refusal — with a Retry-After
// of hint in whole seconds, rounded up and at least 1 (the header has
// no sub-second form, and 0 would invite an immediate hot-loop retry).
// Every 429/503 the repo's servers send goes through it, so
// well-behaved clients back off instead of hot-looping.
func Refuse(w http.ResponseWriter, code int, msg string, hint time.Duration) {
	secs := max(1, int((hint+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, msg, code)
}

// Gate wraps an http.Handler with the drain protocol. Before BeginDrain
// it forwards every request, counting the mutating (non-GET/HEAD)
// ones; after BeginDrain those are refused with 503 + Retry-After while
// the in-flight ones finish. Reads (health, metrics, get-sth) stay
// available throughout so operators and monitors can watch the drain
// progress. The zero Gate is not usable; construct with NewGate.
type Gate struct {
	next http.Handler
	// retryAfter is the hint sent with drain refusals.
	retryAfter time.Duration

	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // closed when draining and inflight hits 0
	refused  uint64
}

// NewGate wraps next. retryAfter is the Retry-After hint on refusals
// (see Refuse for its rounding).
func NewGate(next http.Handler, retryAfter time.Duration) *Gate {
	return &Gate{next: next, retryAfter: retryAfter}
}

// ServeHTTP forwards or refuses according to the drain state.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		g.next.ServeHTTP(w, r)
		return
	}
	g.mu.Lock()
	if g.draining {
		g.refused++
		g.mu.Unlock()
		Refuse(w, http.StatusServiceUnavailable, "draining: retry against another backend", g.retryAfter)
		return
	}
	g.inflight++
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.inflight--
		if g.draining && g.inflight == 0 && g.idle != nil {
			close(g.idle)
			g.idle = nil
		}
		g.mu.Unlock()
	}()
	g.next.ServeHTTP(w, r)
}

// BeginDrain flips the gate: subsequent gated requests are refused with
// 503 + Retry-After. Idempotent.
func (g *Gate) BeginDrain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return
	}
	g.draining = true
	if g.inflight > 0 {
		g.idle = make(chan struct{})
	}
}

// Wait blocks until every gated request admitted before BeginDrain has
// finished, or ctx expires. It reports nil on idle; call it after
// BeginDrain.
func (g *Gate) Wait(ctx context.Context) error {
	g.mu.Lock()
	idle := g.idle
	g.mu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether BeginDrain has been called.
func (g *Gate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Refused reports how many gated requests the drain has turned away.
func (g *Gate) Refused() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refused
}

// Inflight reports the gated requests currently executing.
func (g *Gate) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// shutdownGrace bounds srv.Shutdown once the gate has drained: the
// requests left are reads and idle connections.
const shutdownGrace = 10 * time.Second

// Shutdown drains srv, whose handler is g, in order: BeginDrain, then
// Wait for the admitted mutations bounded by timeout (a timeout is
// logged with the count still in flight, and shutdown proceeds), then
// srv.Shutdown, whose error it returns.
func (g *Gate) Shutdown(srv *http.Server, timeout time.Duration) error {
	g.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := g.Wait(ctx); err != nil {
		log.Printf("drain timeout: %d request(s) still in flight", g.Inflight())
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancelShut()
	return srv.Shutdown(shutCtx)
}
