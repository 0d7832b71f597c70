package ctfront

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/chaos"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/drain"
	"ctrise/internal/policy"
	"ctrise/internal/sct"
)

// swapHandler lets one stable httptest.Server front a log process that
// is stopped and restarted underneath it. While no handler is installed
// (the restart window) it answers like a dying real server's load
// balancer: 503 + Retry-After.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "restarting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// restartableLog is one durable WAL-backed ctlogd-shaped backend: a
// persistent signing key and data directory, a sequencer goroutine, and
// a drain gate — stoppable and restartable behind a stable URL, with a
// chaos proxy injecting network faults in front of everything.
type restartableLog struct {
	t        *testing.T
	name     string
	operator string
	dir      string
	signer   *sct.Signer
	swap     *swapHandler
	proxy    *chaos.Proxy
	srv      *httptest.Server

	log     *ctlog.Log
	gate    *drain.Gate
	cancel  context.CancelFunc
	seqDone chan error
}

func newRestartableLog(t *testing.T, name, operator string, sched chaos.Schedule) *restartableLog {
	t.Helper()
	signer, err := sct.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &restartableLog{
		t:        t,
		name:     name,
		operator: operator,
		dir:      t.TempDir(),
		signer:   signer,
		swap:     &swapHandler{},
	}
	r.proxy = chaos.NewProxy(r.swap, sched)
	r.srv = httptest.NewServer(r.proxy)
	t.Cleanup(r.srv.Close)
	r.start()
	return r
}

// start opens the durable log from its directory (recovering WAL state
// on every restart) and installs it behind the stable URL.
func (r *restartableLog) start() {
	r.t.Helper()
	l, err := ctlog.Open(r.dir, ctlog.Config{
		Name:     r.name,
		Operator: r.operator,
		Signer:   r.signer,
	})
	if err != nil {
		r.t.Fatalf("%s: reopening durable log: %v", r.name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seqDone := make(chan error, 1)
	go func() {
		seqDone <- l.RunSequencer(ctx, 2*time.Millisecond)
	}()
	r.log, r.cancel, r.seqDone = l, cancel, seqDone
	r.gate = drain.NewGate(l.Handler(), time.Second)
	r.swap.set(r.gate)
}

// stop drains the log gracefully — new submissions refused with 503 +
// Retry-After, in-flight ones finished — then shuts the sequencer down
// (final sequence + publish) and closes the store with a full snapshot.
// It returns the sequenced tree size at close, for the durability
// assertion after restart.
func (r *restartableLog) stop() uint64 {
	r.t.Helper()
	r.gate.BeginDrain()
	waitCtx, cancelWait := context.WithTimeout(context.Background(), 5*time.Second)
	if err := r.gate.Wait(waitCtx); err != nil {
		r.t.Fatalf("%s: drain timed out with %d in flight", r.name, r.gate.Inflight())
	}
	cancelWait()
	r.swap.set(nil)
	r.cancel()
	<-r.seqDone
	size := r.log.TreeSize()
	if err := r.log.Close(); err != nil {
		r.t.Fatalf("%s: closing log: %v", r.name, err)
	}
	return size
}

// TestFrontendRollingRestartZeroLoss is the PR's acceptance test: three
// (plus one) durable WAL-backed backends restarted in sequence under
// continuous concurrent submissions flowing through chaos proxies that
// inject 503s and connection resets throughout. The frontend's
// multi-pass fan-out, backoff, and drain-aware failover must deliver
// ZERO failed submissions; every bundle must be policy-compliant and
// cryptographically verified; every restarted log must come back with
// its tree intact; and the pool must converge back to fully healthy.
// Run under -race in CI.
func TestFrontendRollingRestartZeroLoss(t *testing.T) {
	// Two Google and two non-Google backends: any single backend can be
	// down while the rest still satisfy the Chrome policy, so a restart
	// is survivable without waiting for the restarting log.
	pool := []struct {
		name, operator string
		google         bool
	}{
		{"alpha-log", "Google", true},
		{"delta-log", "Google", true},
		{"beta-log", "Beta", false},
		{"gamma-log", "Gamma", false},
	}
	logs := make([]*restartableLog, len(pool))
	specs := make([]BackendSpec, len(pool))
	verifiers := make(map[string]sct.SCTVerifier, len(pool))
	for i, p := range pool {
		logs[i] = newRestartableLog(t, p.name, p.operator, chaos.Schedule{
			Seed:     uint64(100 + i),
			ErrOneIn: 25, ResetOneIn: 40,
		})
		specs[i] = BackendSpec{
			Backend:        ctclient.NewSubmitter(p.name, ctclient.New(logs[i].srv.URL, nil)),
			Operator:       p.operator,
			GoogleOperated: p.google,
			Verifier:       logs[i].signer.Verifier(),
		}
		verifiers[p.name] = logs[i].signer.Verifier()
	}
	f, err := New(Config{
		Backends:        specs,
		Seed:            42,
		Timeout:         3 * time.Second,
		BackoffBase:     20 * time.Millisecond,
		BackoffMax:      150 * time.Millisecond,
		MaxSubmitPasses: 12,
		RetryPause:      15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	lifetime := 90 * 24 * time.Hour
	notBefore := time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC)
	makeTBS := func(serial uint64) ([]byte, error) {
		c := &certs.Certificate{
			SerialNumber: serial,
			Issuer:       certs.Name{CommonName: "Restart CA", Organization: "Restart"},
			Subject:      certs.Name{CommonName: fmt.Sprintf("s%d.example.org", serial)},
			DNSNames:     []string{fmt.Sprintf("s%d.example.org", serial)},
			NotBefore:    notBefore,
			NotAfter:     notBefore.Add(lifetime),
		}
		return c.TBSForSCT()
	}

	// Continuous concurrent load: every submission must succeed, and
	// every returned bundle must be compliant and verify under the
	// logs' real ECDSA keys.
	const workers = 4
	ikh := [32]byte{51}
	var (
		serials   atomic.Uint64
		submitted atomic.Uint64
		stop      = make(chan struct{})
		failures  = make(chan error, 256)
		wg        sync.WaitGroup
	)
	report := func(err error) {
		select {
		case failures <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				serial := serials.Add(1)
				tbs, err := makeTBS(serial)
				if err != nil {
					report(fmt.Errorf("serial %d: building TBS: %w", serial, err))
					return
				}
				bundle, err := f.AddPreChain(context.Background(), ikh, tbs)
				if err != nil {
					report(fmt.Errorf("serial %d: submission FAILED: %w", serial, err))
					return
				}
				submitted.Add(1)
				if !policy.SetCompliant(bundle.candidates(f), lifetime) {
					report(fmt.Errorf("serial %d: bundle %v not compliant", serial, logNames(bundle)))
					return
				}
				entry := sct.PrecertEntry(ikh, tbs)
				for _, s := range bundle.SCTs {
					v, ok := verifiers[s.LogName]
					if !ok {
						report(fmt.Errorf("serial %d: SCT from unknown log %q", serial, s.LogName))
						return
					}
					if verr := v.VerifySCT(s.SCT, entry); verr != nil {
						report(fmt.Errorf("serial %d: SCT from %s fails verification: %w", serial, s.LogName, verr))
						return
					}
				}
			}
		}()
	}

	// The rolling restart: each backend in sequence is drained, closed
	// (final snapshot), held down briefly, and reopened from its WAL.
	time.Sleep(100 * time.Millisecond) // warm-up under load
	for i, r := range logs {
		sizeAtClose := r.stop()
		time.Sleep(40 * time.Millisecond) // the hard-down window
		r.start()
		if got := r.log.TreeSize(); got < sizeAtClose {
			t.Errorf("%s: tree shrank across restart: %d -> %d", r.name, sizeAtClose, got)
		}
		// Let the pool re-absorb the restarted backend before the next
		// restart, as a real rolling deploy would.
		time.Sleep(150 * time.Millisecond)
		_ = i
	}
	time.Sleep(100 * time.Millisecond) // cool-down under load
	close(stop)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if n := submitted.Load(); n < 20 {
		t.Fatalf("only %d submissions completed; the restarts were not exercised under load", n)
	}

	// The chaos layer really was hostile: injected faults, not a quiet
	// network, is what the zero-loss claim was proven against.
	var injected uint64
	for _, r := range logs {
		for plan, n := range r.proxy.Counts() {
			if plan != chaos.PlanNone {
				injected += n
			}
		}
	}
	if injected == 0 {
		t.Fatal("chaos proxies injected no faults; the test ran vacuously gentle")
	}

	// The pool converges back to fully healthy once the penalties lapse.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allHealthy := true
		for _, h := range f.Health() {
			if !h.Healthy {
				allHealthy = false
			}
		}
		if allHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never converged healthy after the rolling restart: %+v", f.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("rolling restart: %d submissions, 0 failures, %d chaos faults injected", submitted.Load(), injected)
}
