// Package ctfront implements a multi-log CT submission frontend: one
// endpoint that accepts add-chain/add-pre-chain submissions and fans
// them out concurrently to a pool of backend logs until the collected
// SCTs form a Chrome-CT-policy-compliant set (internal/policy), then
// returns the whole bundle. It is the client-side half of the policy
// the paper's Section 2 measures — certificates are only trusted with
// SCTs from a diverse set of logs, so CAs in practice submit through
// exactly this kind of fan-out.
//
// The frontend plans each submission with policy.SelectCompliant over a
// deterministic preference ranking of the healthy backends: committed
// load weight first (CommitWeights folds observed tree-size growth and
// a latency EWMA into coarse integer buckets at explicit commit points,
// never mid-submission), then a seed-derived key that is a pure
// function of (seed, submission identity, backend name) — so a replayed
// workload routes identically at any concurrency, the property the
// ecosystem equivalence tests pin down. Failures re-plan against the
// remaining candidates: the gap the failed backend leaves (its
// Google/non-Google role, its SCT count) is re-closed from the
// next-ranked spare, and per-backend consecutive-failure backoff keeps
// a dead backend out of subsequent plans until its penalty expires. An
// attempt that outlives Config.Timeout while the caller still waits is
// such a failure. A submission launches only its plan and re-plans only
// on a failure, so its bundle depends on committed state and on which
// backends failed, never on which answered first.
//
// Collected SCTs are not trusted: when a backend's key is known (an
// explicit BackendSpec.Verifier, or for a LocalLog the wrapped log's
// own key), every SCT signature is checked before it may join a bundle.
// A bad signature is ErrBadSCT: it counts as a backend failure (backoff
// + the BadSCTs counter) and the SCT is discarded, so a misbehaving or
// wrong-key backend is quarantined rather than poisoning the client's
// bundle.
//
// Backends are anything implementing Backend: in-process logs
// (LocalLog wraps *ctlog.Log) or remote logs over the ct/v1 HTTP API
// (ctclient.Submitter). Handler serves the frontend's own HTTP API;
// cmd/ctfront is the standalone server.
package ctfront

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/ctlog"
	"ctrise/internal/drain"
	"ctrise/internal/policy"
	"ctrise/internal/sct"
	"ctrise/internal/stats"
)

// Errors returned by the frontend.
var (
	// ErrNoBackends means the frontend was configured without backends.
	ErrNoBackends = errors.New("ctfront: no backends configured")
	// ErrSubmission wraps a fan-out that could not assemble a compliant
	// SCT set: every viable plan was exhausted by backend failures.
	ErrSubmission = errors.New("ctfront: could not assemble a policy-compliant SCT set")
	// ErrBadSCT means a backend returned an SCT whose signature does not
	// verify under the backend's configured key. The backend is treated
	// as failed (backoff + counter); the SCT never reaches a bundle.
	ErrBadSCT = errors.New("ctfront: SCT signature verification failed")
)

// Backend is one log the frontend can submit to. *ctlog.Log wrapped in
// LocalLog and *ctclient.Submitter both satisfy it. Implementations
// must be safe for concurrent use; calls must respect ctx.
type Backend interface {
	// Name identifies the log in bundles and health reports.
	Name() string
	// AddChain submits a final certificate (x509_entry).
	AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error)
	// AddPreChain submits a precertificate (precert_entry).
	AddPreChain(ctx context.Context, issuerKeyHash [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error)
}

// LocalLog adapts an in-process *ctlog.Log to the Backend interface.
// The underlying calls are synchronous and fast (staging is a few map
// operations), so ctx is only checked up front. The frontend verifies a
// LocalLog's SCTs under the log's own key and observes its tree size
// at CommitWeights.
type LocalLog struct {
	Log *ctlog.Log
}

// Name returns the wrapped log's name.
func (b LocalLog) Name() string { return b.Log.Name() }

// AddChain submits to the wrapped log after a context check.
func (b LocalLog) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Log.AddChain(cert)
}

// AddPreChain submits to the wrapped log after a context check.
func (b LocalLog) AddPreChain(ctx context.Context, issuerKeyHash [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Log.AddPreChain(issuerKeyHash, tbs)
}

// BackendSpec pairs a Backend with its policy metadata.
type BackendSpec struct {
	Backend Backend
	// Operator is the organization running the log (operator-diversity
	// rule). Defaults to the backend name when empty.
	Operator string
	// GoogleOperated marks Google's own logs (the one-Google rule).
	GoogleOperated bool
	// Verifier checks the backend's SCT signatures before bundling.
	// When nil, a LocalLog is verified under its log's own key and any
	// other backend is accepted unverified — cmd/ctfront requires an
	// explicit KEYSPEC (or "none") so remote pools are verified by
	// default.
	Verifier sct.SCTVerifier
}

// Config configures a Frontend.
type Config struct {
	// Backends is the log pool. At least one Google-operated and one
	// non-Google backend are needed for any submission to succeed.
	Backends []BackendSpec
	// Seed drives the deterministic per-submission backend ranking.
	// Same seed, same routing — the replay tests depend on it.
	Seed int64
	// Timeout bounds each backend submission attempt. 0 means no
	// per-attempt timeout (the caller's ctx still applies).
	Timeout time.Duration
	// BackoffBase is the penalty after a backend's first consecutive
	// failure; it doubles per further failure up to BackoffMax.
	// Defaults: 1s base, 5m max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxSubmitPasses bounds how many planning passes one submission may
	// run. The default 1 keeps the original single-pass behavior: when
	// every candidate has been tried the submission fails. A higher
	// bound lets the frontend pause (RetryPause), re-evaluate backend
	// health, and re-plan with the SCTs already collected — the posture
	// a rolling restart needs, where "every backend failed" usually
	// means "one backend is mid-restart, try again shortly". Replayed
	// deterministic workloads never fail a pass, so extra passes cost
	// them nothing.
	MaxSubmitPasses int
	// RetryPause is the wait between submission passes. Defaults to
	// 50ms when MaxSubmitPasses > 1.
	RetryPause time.Duration
	// Clock supplies the frontend's notion of now, for backoff
	// bookkeeping. Defaults to time.Now. Experiments install a virtual
	// clock.
	Clock func() time.Time

	// Admission control, applied by the HTTP handlers (Handler) only —
	// in-process callers (the ecosystem replay) are trusted and the
	// deterministic submission path stays untouched. Zero values
	// disable each mechanism.

	// MaxInflight bounds concurrently executing HTTP submissions;
	// excess requests are shed immediately with 503 + Retry-After
	// (shedding beats queue collapse). 0 = unbounded.
	MaxInflight int
	// GlobalRate/GlobalBurst form the pool-wide submission token
	// bucket (tokens per second / bucket depth). Exceeding it is 429 +
	// Retry-After. GlobalRate 0 disables; GlobalBurst defaults to
	// max(GlobalRate, 1).
	GlobalRate  float64
	GlobalBurst float64
	// ClientRate/ClientBurst form the per-client (remote host) token
	// bucket, same semantics.
	ClientRate  float64
	ClientBurst float64
	// RetryAfter is the hint sent with every shed/throttled/drained
	// response, in whole seconds rounded up; anything below 1s sends 1.
	RetryAfter time.Duration
}

// BundleSCT is one SCT of a bundle, attributed to its log.
type BundleSCT struct {
	LogName  string
	Operator string
	SCT      *sct.SignedCertificateTimestamp
}

// Bundle is the result of one fan-out: the SCTs collected by the time
// the set became policy-compliant, in launch order.
type Bundle struct {
	SCTs []BundleSCT
}

// candidates converts the bundle to the policy view.
func (b *Bundle) candidates(f *Frontend) []policy.Candidate {
	out := make([]policy.Candidate, len(b.SCTs))
	for i, s := range b.SCTs {
		out[i] = policy.Candidate{Name: s.LogName, Operator: s.Operator, GoogleOperated: f.googleByName[s.LogName]}
	}
	return out
}

// backendState is one backend plus its mutable health and load
// observations.
type backendState struct {
	spec     BackendSpec
	cand     policy.Candidate
	verifier sct.SCTVerifier
	log      *ctlog.Log // the wrapped log of a LocalLog, else nil

	mu           sync.Mutex
	consecFails  int
	backoffUntil time.Time
	successes    uint64
	failures     uint64
	badSCTs      uint64

	// Live load observations, folded into routing only at
	// CommitWeights so mid-submission state never perturbs the
	// deterministic ranking.
	epochSuccesses uint64
	ewmaLatencyUs  int64 // EWMA of successful-call latency, microseconds
	lastTreeSize   uint64
	haveTreeSize   bool
	weight         int // committed routing weight; lower routes earlier
}

// healthyAt reports whether the backend is outside its failure penalty.
func (s *backendState) healthyAt(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !now.Before(s.backoffUntil)
}

func (s *backendState) recordSuccess(latency time.Duration) {
	obs := latency.Microseconds()
	if obs < 0 {
		obs = 0
	}
	s.mu.Lock()
	s.consecFails = 0
	s.backoffUntil = time.Time{}
	s.successes++
	s.epochSuccesses++
	if s.ewmaLatencyUs == 0 {
		s.ewmaLatencyUs = obs
	} else {
		s.ewmaLatencyUs += (obs - s.ewmaLatencyUs) / 4
	}
	s.mu.Unlock()
}

func (s *backendState) recordFailure(now time.Time, base, maxPenalty time.Duration) {
	s.mu.Lock()
	s.failures++
	s.applyBackoffLocked(now, base, maxPenalty)
	s.mu.Unlock()
}

// recordBadSCT penalizes a backend whose SCT failed signature
// verification exactly like a failed call, and counts it separately —
// the counter the tampered-key regression pins.
func (s *backendState) recordBadSCT(now time.Time, base, maxPenalty time.Duration) {
	s.mu.Lock()
	s.failures++
	s.badSCTs++
	s.applyBackoffLocked(now, base, maxPenalty)
	s.mu.Unlock()
}

func (s *backendState) applyBackoffLocked(now time.Time, base, maxPenalty time.Duration) {
	s.consecFails++
	penalty := base << (s.consecFails - 1)
	if penalty > maxPenalty || penalty <= 0 {
		penalty = maxPenalty
	}
	s.backoffUntil = now.Add(penalty)
}

// committedWeight reads the routing weight last frozen by CommitWeights.
func (s *backendState) committedWeight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.weight
}

// Frontend fans submissions out to a backend pool until the collected
// SCT set is policy-compliant. All methods are safe for concurrent use.
type Frontend struct {
	cfg          Config
	backends     []*backendState
	googleByName map[string]bool
	admission    *admission

	// The HTTP surface is built once (Handler); the drain gate wraps it.
	handlerOnce sync.Once
	handler     http.Handler
	gate        *drain.Gate

	mu            sync.Mutex
	weightCommits uint64
}

// New validates cfg and assembles a Frontend.
func New(cfg Config) (*Frontend, error) {
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Minute
	}
	if cfg.MaxSubmitPasses < 1 {
		cfg.MaxSubmitPasses = 1
	}
	if cfg.RetryPause <= 0 {
		cfg.RetryPause = 50 * time.Millisecond
	}
	f := &Frontend{cfg: cfg, googleByName: make(map[string]bool, len(cfg.Backends))}
	f.admission = newAdmission(&f.cfg)
	seen := make(map[string]bool, len(cfg.Backends))
	for _, spec := range cfg.Backends {
		name := spec.Backend.Name()
		if seen[name] {
			return nil, fmt.Errorf("ctfront: duplicate backend name %q", name)
		}
		seen[name] = true
		if spec.Operator == "" {
			spec.Operator = name
		}
		st := &backendState{
			spec:     spec,
			cand:     policy.Candidate{Name: name, Operator: spec.Operator, GoogleOperated: spec.GoogleOperated},
			verifier: spec.Verifier,
		}
		if local, ok := spec.Backend.(LocalLog); ok {
			// An in-process pool is verified without configuration.
			st.log = local.Log
			if st.verifier == nil {
				st.verifier = local.Log.Verifier()
			}
		}
		f.backends = append(f.backends, st)
		f.googleByName[name] = spec.GoogleOperated
	}
	return f, nil
}

// AddChain fans a final certificate out until the SCT set is compliant.
func (f *Frontend) AddChain(ctx context.Context, cert []byte) (*Bundle, error) {
	entry := sct.X509Entry(cert)
	return f.submit(ctx, entry, lifetimeOf(cert), func(ctx context.Context, b Backend) (*sct.SignedCertificateTimestamp, error) {
		return b.AddChain(ctx, cert)
	})
}

// AddPreChain fans a precertificate out until the SCT set is compliant.
func (f *Frontend) AddPreChain(ctx context.Context, issuerKeyHash [32]byte, tbs []byte) (*Bundle, error) {
	entry := sct.PrecertEntry(issuerKeyHash, tbs)
	return f.submit(ctx, entry, lifetimeOf(tbs), func(ctx context.Context, b Backend) (*sct.SignedCertificateTimestamp, error) {
		return b.AddPreChain(ctx, issuerKeyHash, tbs)
	})
}

// defaultLifetime is the certificate lifetime assumed when a
// submission's validity window cannot be parsed from its bytes
// (policy.MinSCTs scales the SCT count with lifetime).
const defaultLifetime = 90 * 24 * time.Hour

// lifetimeOf extracts the validity window from the submission bytes
// (certificates and TBSes share the synthetic codec). Backend logs
// accept opaque bytes, so an unparseable submission is not rejected —
// it is planned under defaultLifetime.
func lifetimeOf(data []byte) time.Duration {
	c, err := certs.Decode(data)
	if err != nil || !c.NotAfter.After(c.NotBefore) {
		return defaultLifetime
	}
	return c.NotAfter.Sub(c.NotBefore)
}

// rankMix steps the shared splitmix64 finalizer (stats.Mix64) the way
// the generator does — golden-ratio increment, then finalize — so the
// ranking rides the same mixer as the ecosystem's seed-splitting.
func rankMix(z uint64) uint64 { return stats.Mix64(z + 0x9e3779b97f4a7c15) }

// rank returns the pool indices in this submission's deterministic
// preference order: committed routing weight ascending (load-aware),
// then mix64(seed, submission id, backend name) spreading equal-weight
// backends, then name. The order depends only on committed state and
// the submission identity — never mid-submission observations — so
// identical workloads with identical commit points route identically
// regardless of concurrency or scheduling.
func (f *Frontend) rank(id uint64) []int {
	rs := make([]policy.Ranked, len(f.backends))
	for i, s := range f.backends {
		rs[i] = policy.Ranked{
			Weight: s.committedWeight(),
			Key:    rankMix(uint64(f.cfg.Seed) ^ rankMix(id) ^ stats.Hash64(s.cand.Name)),
			Name:   s.cand.Name,
		}
	}
	return policy.Order(rs)
}

// result is one backend's answer to a fan-out.
type result struct {
	idx int
	sct *sct.SignedCertificateTimestamp
	err error
}

// submit drives submitPass up to MaxSubmitPasses times. A pass ends
// either with a compliant bundle or with every viable candidate tried;
// between passes the frontend pauses RetryPause and re-plans with the
// SCTs already collected — during a rolling restart "everything
// failed" usually means "one backend is mid-restart", and the next
// pass finds it (or its revived peers) again. Deterministic replays
// never fail a pass, so the loop degenerates to the single-pass engine
// there.
func (f *Frontend) submit(ctx context.Context, entry sct.CertificateEntry, lifetime time.Duration, call func(context.Context, Backend) (*sct.SignedCertificateTimestamp, error)) (*Bundle, error) {
	// The ranking id: the first 8 bytes of the identity a log dedupes on.
	idh := entry.IdentityHash()
	id := binary.BigEndian.Uint64(idh[:8])
	bundle := &Bundle{}
	var err error
	for pass := 0; pass < f.cfg.MaxSubmitPasses; pass++ {
		if pass > 0 {
			timer := time.NewTimer(f.cfg.RetryPause)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
		}
		var done bool
		done, err = f.submitPass(ctx, id, lifetime, entry, call, bundle)
		if done {
			return bundle, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, err
}

// submitPass is the fan-out engine shared by AddChain and AddPreChain.
//
// It plans the initial backend set with policy.SelectCompliant over the
// healthy pool in deterministic rank order, launches the plan
// concurrently, and then runs an event loop: a success adds the
// (signature-verified) SCT to the bundle (done when the bundle is
// compliant), and a failure re-plans the remaining gap from untried
// spares. Backends that fail accrue exponential backoff and drop out of
// subsequent submissions' healthy pool; when the healthy pool alone
// cannot satisfy the policy the frontend degrades gracefully and plans
// over the full pool (trying a backed-off backend beats refusing the
// submission).
//
// bundle carries SCTs already collected by earlier passes; logs in it
// are never re-planned. It reports done=true once the bundle is
// compliant (sorted in launch order).
func (f *Frontend) submitPass(ctx context.Context, id uint64, lifetime time.Duration, entry sct.CertificateEntry, call func(context.Context, Backend) (*sct.SignedCertificateTimestamp, error), bundle *Bundle) (bool, error) {
	now := f.cfg.Clock()
	order := f.rank(id)
	healthy := order[:0:0]
	for _, i := range order {
		if f.backends[i].healthyAt(now) {
			healthy = append(healthy, i)
		}
	}
	pool := healthy
	if _, err := policy.SelectCompliant(nil, f.candidatesOf(healthy), lifetime); err != nil {
		pool = order // degraded: not enough healthy diversity, try everyone
	}

	// Buffered so answers nobody waits for (the caller gave up, or the
	// bundle closed without them) never block; their goroutines still
	// record health.
	results := make(chan result, len(f.backends))
	inflight := map[int]bool{}
	tried := map[int]bool{}
	launchSeq := map[string]int{} // log name -> launch order
	for _, s := range bundle.SCTs {
		// SCTs carried over from an earlier pass keep their collection
		// order ahead of anything this pass launches.
		launchSeq[s.LogName] = len(launchSeq)
		if i, ok := f.indexOf(s.LogName); ok {
			tried[i] = true
		}
	}
	var lastErr error

	launch := func(idx int) {
		tried[idx] = true
		launchSeq[f.backends[idx].cand.Name] = len(launchSeq)
		inflight[idx] = true
		s := f.backends[idx]
		go func() {
			cctx := ctx
			if f.cfg.Timeout > 0 {
				var cancel context.CancelFunc
				cctx, cancel = context.WithTimeout(ctx, f.cfg.Timeout)
				defer cancel()
			}
			start := f.cfg.Clock()
			got, err := call(cctx, s.spec.Backend)
			switch {
			case err == nil:
				if s.verifier != nil {
					if verr := s.verifier.VerifySCT(got, entry); verr != nil {
						// The backend answered with a signature its
						// configured key rejects: quarantine it like any
						// failure and keep the poisoned SCT out of the
						// bundle.
						got = nil
						err = fmt.Errorf("%w: %s: %v", ErrBadSCT, s.cand.Name, verr)
						s.recordBadSCT(f.cfg.Clock(), f.cfg.BackoffBase, f.cfg.BackoffMax)
						break
					}
				}
				s.recordSuccess(f.cfg.Clock().Sub(start))
			case ctx.Err() != nil:
				// The caller went away (client disconnect, parent
				// deadline) — the backend did nothing wrong, so its
				// health is left untouched. A per-attempt Timeout expiry
				// is different: there the parent ctx is still live and
				// the slow backend earns its penalty.
			default:
				s.recordFailure(f.cfg.Clock(), f.cfg.BackoffBase, f.cfg.BackoffMax)
			}
			results <- result{idx, got, err}
		}()
	}

	// plan selects and launches whatever the bundle plus the in-flight
	// set still needs, drawing untried candidates from the pool in rank
	// order. When the remaining healthy candidates cannot close the gap
	// the pool degrades mid-flight to the full ranking — backed-off
	// spares included — because trying a penalized backend beats
	// refusing the submission. It reports whether the gap is still
	// closeable (possibly by results already in flight).
	plan := func() bool {
		have := bundle.candidates(f)
		for idx := range inflight {
			have = append(have, f.backends[idx].cand)
		}
		untried := func() []int {
			var out []int
			for _, i := range pool {
				if !tried[i] {
					out = append(out, i)
				}
			}
			return out
		}
		cands := untried()
		picked, err := policy.SelectCompliant(have, f.candidatesOf(cands), lifetime)
		if err != nil && len(pool) < len(order) {
			pool = order
			cands = untried()
			picked, err = policy.SelectCompliant(have, f.candidatesOf(cands), lifetime)
		}
		if err != nil {
			return len(inflight) > 0
		}
		for _, p := range picked {
			launch(cands[p])
		}
		return true
	}

	if policy.SetCompliant(bundle.candidates(f), lifetime) {
		// Carried-over SCTs already satisfy the policy (a prior pass
		// ended compliant mid-replan); nothing to launch.
		return true, nil
	}
	if !plan() {
		return false, fmt.Errorf("%w: %w", ErrSubmission, policy.ErrUnsatisfiable)
	}

	for len(inflight) > 0 {
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case r := <-results:
			delete(inflight, r.idx)
			if r.err != nil {
				lastErr = fmt.Errorf("%s: %w", f.backends[r.idx].cand.Name, r.err)
				if !plan() {
					return false, fmt.Errorf("%w: last backend error: %w", ErrSubmission, lastErr)
				}
				continue
			}
			st := f.backends[r.idx]
			bundle.SCTs = append(bundle.SCTs, BundleSCT{LogName: st.cand.Name, Operator: st.cand.Operator, SCT: r.sct})
			if policy.SetCompliant(bundle.candidates(f), lifetime) {
				// Results arrive in completion order, which is scheduling
				// noise; hand the bundle back in launch (plan) order so
				// identical submissions produce identical bundles.
				sort.SliceStable(bundle.SCTs, func(a, b int) bool {
					return launchSeq[bundle.SCTs[a].LogName] < launchSeq[bundle.SCTs[b].LogName]
				})
				return true, nil
			}
		}
	}
	if lastErr != nil {
		return false, fmt.Errorf("%w: last backend error: %w", ErrSubmission, lastErr)
	}
	return false, fmt.Errorf("%w: %w", ErrSubmission, policy.ErrUnsatisfiable)
}

func (f *Frontend) candidatesOf(indices []int) []policy.Candidate {
	out := make([]policy.Candidate, len(indices))
	for i, idx := range indices {
		out[i] = f.backends[idx].cand
	}
	return out
}

// indexOf resolves a backend name to its pool index.
func (f *Frontend) indexOf(name string) (int, bool) {
	for i, s := range f.backends {
		if s.cand.Name == name {
			return i, true
		}
	}
	return 0, false
}

// BackendHealth is one backend's health snapshot.
type BackendHealth struct {
	Name             string
	Operator         string
	GoogleOperated   bool
	Healthy          bool
	Verified         bool // an SCT verifier is configured
	ConsecutiveFails int
	BackoffUntil     time.Time
	Successes        uint64
	Failures         uint64
	BadSCTs          uint64
	Weight           int // committed routing weight (lower routes earlier)
}

// Health reports every backend's health, in configuration order.
func (f *Frontend) Health() []BackendHealth {
	now := f.cfg.Clock()
	out := make([]BackendHealth, len(f.backends))
	for i, s := range f.backends {
		s.mu.Lock()
		out[i] = BackendHealth{
			Name:             s.cand.Name,
			Operator:         s.cand.Operator,
			GoogleOperated:   s.cand.GoogleOperated,
			Healthy:          !now.Before(s.backoffUntil),
			Verified:         s.verifier != nil,
			ConsecutiveFails: s.consecFails,
			BackoffUntil:     s.backoffUntil,
			Successes:        s.successes,
			Failures:         s.failures,
			BadSCTs:          s.badSCTs,
			Weight:           s.weight,
		}
		s.mu.Unlock()
	}
	return out
}

// latencyBucketUs quantizes a latency EWMA (microseconds) into coarse
// deterministic buckets: 0 below 1ms, then one bucket per power of 4
// (1–4ms → 1, 4–16ms → 2, ...), capped at 8. The coarseness is the
// point — only sustained, order-of-magnitude latency shifts move a
// backend's routing weight, so scheduling jitter cannot perturb
// routing between commits.
func latencyBucketUs(ewmaUs int64) int {
	bucket := 0
	for threshold := int64(1000); ewmaUs >= threshold && bucket < 8; threshold *= 4 {
		bucket++
	}
	return bucket
}

// CommitWeights folds each backend's accumulated load observations into
// its routing weight and resets the epoch. Weights change only here —
// at explicit commit points the caller controls (the ecosystem replay
// commits at its end-of-day barrier; cmd/ctfront on a timer) — so
// routing stays a pure function of committed state between commits and
// replays remain byte-identical at any parallelism.
//
// The weight is the sum of two coarse buckets, lower preferred:
//
//   - latency: the per-backend success-latency EWMA, power-of-4 buckets
//     (latencyBucketUs). A backend an order of magnitude slower than
//     the pool drifts to the back of every ranking.
//   - merge stall: a backend that accepted submissions this epoch but
//     whose observed tree size did not grow (it is not merging —
//     the paper's MMD concern) is penalized +2. Growth is observed on
//     a LocalLog's wrapped log; remote backends are judged on latency
//     alone.
func (f *Frontend) CommitWeights() {
	for _, s := range f.backends {
		s.mu.Lock()
		s.weight = latencyBucketUs(s.ewmaLatencyUs)
		if s.log != nil {
			size := s.log.TreeSize()
			if s.haveTreeSize && s.epochSuccesses > 0 && size <= s.lastTreeSize {
				s.weight += 2
			}
			s.lastTreeSize, s.haveTreeSize = size, true
		}
		s.epochSuccesses = 0
		s.mu.Unlock()
	}
	f.mu.Lock()
	f.weightCommits++
	f.mu.Unlock()
}

// WeightCommits reports how many CommitWeights calls have run — the
// equivalence tests assert load-aware routing was actually engaged.
func (f *Frontend) WeightCommits() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.weightCommits
}
