package ctfront

import (
	"sync"
	"time"

	"ctrise/internal/drain"
)

// admission is the frontend's HTTP-side admission controller: a global
// and a per-client token bucket plus a bounded in-flight semaphore.
// It protects the backend pool from a single hot client and from queue
// collapse — excess work is shed immediately with 429/503 +
// Retry-After rather than queued until every request times out. The
// in-process submission path (the deterministic ecosystem replay) never
// passes through it.
type admission struct {
	cfg *Config
	sem chan struct{} // nil = unbounded in-flight

	mu      sync.Mutex
	global  *drain.Bucket // nil = no global rate limit
	clients map[string]*drain.Bucket
	// idleAt is no later than the earliest time any bucket in clients
	// can be Full: the earliest FullAt the last scan of a full map kept,
	// lowered by each bucket inserted since (the zero time when that
	// scan kept none). Before it a full map has nothing to evict, so a
	// new host is shed without a scan.
	idleAt time.Time

	admitted     uint64
	shedInflight uint64
	shedGlobal   uint64
	shedClient   uint64
}

// maxClientBuckets caps the per-client map. When it is full, idle
// (refilled) buckets are evicted to make room for a new client; when
// none is idle, the new client is shed as over its rate, so a flood of
// distinct hosts neither grows the map nor pushes out active clients.
// A scan for idle buckets runs at most once per time a bucket can have
// refilled (admission.idleAt); a shed between scans costs O(1).
const maxClientBuckets = 4096

// verdict is the admission decision for one request.
type verdict int

const (
	admitOK verdict = iota
	shedInflight
	shedGlobalRate
	shedClientRate
)

func newAdmission(cfg *Config) *admission {
	a := &admission{cfg: cfg, clients: make(map[string]*drain.Bucket)}
	if cfg.MaxInflight > 0 {
		a.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.GlobalRate > 0 {
		a.global = drain.NewBucket(cfg.GlobalRate, cfg.GlobalBurst)
	}
	return a
}

// admit runs the admission checks for one submission from client (the
// remote host). On admitOK the returned release must be called when the
// request finishes; on any shed verdict release is nil.
func (a *admission) admit(client string) (verdict, func()) {
	now := a.cfg.Clock()
	a.mu.Lock()
	if a.global != nil && !a.global.Take(now) {
		a.shedGlobal++
		a.mu.Unlock()
		return shedGlobalRate, nil
	}
	if a.cfg.ClientRate > 0 {
		b, known := a.clients[client]
		if !known && a.roomLocked(now) {
			b = drain.NewBucket(a.cfg.ClientRate, a.cfg.ClientBurst)
			a.clients[client] = b
		}
		if b == nil || !b.Take(now) {
			a.shedClient++
			a.mu.Unlock()
			return shedClientRate, nil
		}
		if !known {
			if at := b.FullAt(); at.Before(a.idleAt) {
				a.idleAt = at
			}
		}
	}
	a.mu.Unlock()

	if a.sem != nil {
		select {
		case a.sem <- struct{}{}:
		default:
			// Full: shed now instead of queueing into collapse. The
			// client's Retry-After is its queue.
			a.mu.Lock()
			a.shedInflight++
			a.mu.Unlock()
			return shedInflight, nil
		}
	}
	a.mu.Lock()
	a.admitted++
	a.mu.Unlock()
	if a.sem == nil {
		return admitOK, func() {}
	}
	return admitOK, func() { <-a.sem }
}

// roomLocked reports whether the client map can take one more bucket,
// first dropping, when it is at capacity, every bucket that has refilled
// to its burst (no recent traffic). Before idleAt no bucket can have
// refilled, so a full map is reported full without a scan; a scan
// records the earliest FullAt of the buckets it keeps. Called with a.mu
// held.
func (a *admission) roomLocked(now time.Time) bool {
	if len(a.clients) < maxClientBuckets {
		return true
	}
	if now.Before(a.idleAt) {
		return false
	}
	a.idleAt = time.Time{}
	for host, b := range a.clients {
		if b.Full(now) {
			delete(a.clients, host)
		} else if at := b.FullAt(); a.idleAt.IsZero() || at.Before(a.idleAt) {
			a.idleAt = at
		}
	}
	return len(a.clients) < maxClientBuckets
}

// Inflight reports currently admitted, unfinished HTTP submissions.
func (a *admission) Inflight() int {
	if a.sem == nil {
		return -1
	}
	return len(a.sem)
}

// AdmissionStats is the admission controller's counter snapshot.
type AdmissionStats struct {
	Admitted uint64 // submissions admitted to the fan-out engine
	// Shed counters, by mechanism.
	ShedInflight   uint64 // 503: in-flight semaphore full
	ShedGlobalRate uint64 // 429: global token bucket empty
	ShedClientRate uint64 // 429: the client's token bucket empty
	ShedDraining   uint64 // 503: refused by the drain gate
	Inflight       int    // currently executing (-1 when unbounded)
}

// AdmissionStats snapshots the HTTP admission counters.
func (f *Frontend) AdmissionStats() AdmissionStats {
	a := f.admission
	a.mu.Lock()
	s := AdmissionStats{
		Admitted:       a.admitted,
		ShedInflight:   a.shedInflight,
		ShedGlobalRate: a.shedGlobal,
		ShedClientRate: a.shedClient,
	}
	a.mu.Unlock()
	s.Inflight = a.Inflight()
	if g := f.drainGate(); g != nil {
		s.ShedDraining = g.Refused()
	}
	return s
}
