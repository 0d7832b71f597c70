package ctfront

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/ctlog"
	"ctrise/internal/policy"
	"ctrise/internal/sct"
)

// testClock is a settable virtual clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// logNames returns b's log names in collection order.
func logNames(b *Bundle) []string {
	out := make([]string, len(b.SCTs))
	for i, s := range b.SCTs {
		out[i] = s.LogName
	}
	return out
}

// newLocalPool builds n in-process logs named log-0..log-n-1; googles
// marks which are Google-operated (operator "Google", else "op-i").
func newLocalPool(t *testing.T, clock *testClock, n int, googles ...int) []BackendSpec {
	t.Helper()
	isGoogle := map[int]bool{}
	for _, g := range googles {
		isGoogle[g] = true
	}
	specs := make([]BackendSpec, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("log-%d", i)
		op := fmt.Sprintf("op-%d", i)
		if isGoogle[i] {
			op = "Google"
		}
		l, err := ctlog.New(ctlog.Config{
			Name:     name,
			Operator: op,
			Signer:   sct.NewFastSigner(name),
			Clock:    clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = BackendSpec{Backend: LocalLog{Log: l}, Operator: op, GoogleOperated: isGoogle[i]}
	}
	return specs
}

// testTBS encodes a synthetic precert TBS with the given validity.
func testTBS(t *testing.T, serial uint64, lifetime time.Duration) []byte {
	t.Helper()
	notBefore := time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC)
	c := &certs.Certificate{
		SerialNumber: serial,
		Issuer:       certs.Name{CommonName: "Test CA", Organization: "Test"},
		Subject:      certs.Name{CommonName: "example.org"},
		DNSNames:     []string{"example.org"},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(lifetime),
	}
	tbs, err := c.TBSForSCT()
	if err != nil {
		t.Fatal(err)
	}
	return tbs
}

func bundleCandidates(f *Frontend, b *Bundle) []policy.Candidate {
	return b.candidates(f)
}

func TestFrontendCompliantBundle(t *testing.T) {
	clock := newTestClock()
	f, err := New(Config{
		Backends: newLocalPool(t, clock, 4, 0, 1),
		Seed:     42,
		Clock:    clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour
	bundle, err := f.AddPreChain(context.Background(), [32]byte{1}, testTBS(t, 1, lifetime))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.SCTs) != 2 {
		t.Fatalf("bundle has %d SCTs, want 2 for a 90-day cert", len(bundle.SCTs))
	}
	if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
		t.Fatalf("bundle %v not policy compliant", logNames(bundle))
	}
	for _, s := range bundle.SCTs {
		if s.SCT == nil || s.LogName == "" {
			t.Fatalf("bundle SCT missing attribution: %+v", s)
		}
	}
}

func TestFrontendLifetimeScalesSCTCount(t *testing.T) {
	clock := newTestClock()
	f, err := New(Config{
		Backends: newLocalPool(t, clock, 6, 0, 1),
		Seed:     42,
		Clock:    clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 2 * 365 * 24 * time.Hour // ~24 months: MinSCTs = 3
	bundle, err := f.AddPreChain(context.Background(), [32]byte{1}, testTBS(t, 2, lifetime))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.SCTs) != 3 {
		t.Fatalf("bundle has %d SCTs, want 3 for a 2-year cert", len(bundle.SCTs))
	}
	if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
		t.Fatalf("bundle %v not policy compliant", logNames(bundle))
	}
}

func TestFrontendDeterministicRouting(t *testing.T) {
	// Two frontends over identically named pools and the same seed must
	// route every submission to the same logs, regardless of history.
	clock := newTestClock()
	mk := func() *Frontend {
		f, err := New(Config{
			Backends: newLocalPool(t, clock, 8, 0, 1, 2),
			Seed:     7,
			Clock:    clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1, f2 := mk(), mk()
	for serial := uint64(1); serial <= 20; serial++ {
		tbs := testTBS(t, serial, 90*24*time.Hour)
		b1, err := f1.AddPreChain(context.Background(), [32]byte{9}, tbs)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := f2.AddPreChain(context.Background(), [32]byte{9}, tbs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(logNames(b1), logNames(b2)) {
			t.Fatalf("serial %d routed differently: %v vs %v", serial, logNames(b1), logNames(b2))
		}
	}
	// A different seed must change at least one routing decision across
	// a batch of submissions (sanity that the seed is actually used).
	f3, err := New(Config{Backends: newLocalPool(t, clock, 8, 0, 1, 2), Seed: 8, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for serial := uint64(1); serial <= 20 && !diverged; serial++ {
		tbs := testTBS(t, serial, 90*24*time.Hour)
		b1, err := f1.AddPreChain(context.Background(), [32]byte{10}, tbs)
		if err != nil {
			t.Fatal(err)
		}
		b3, err := f3.AddPreChain(context.Background(), [32]byte{10}, tbs)
		if err != nil {
			t.Fatal(err)
		}
		diverged = !reflect.DeepEqual(logNames(b1), logNames(b3))
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 routed 20 submissions identically; seed is not feeding the ranking")
	}
}

// faultyBackend fails every call until revived, counting attempts.
type faultyBackend struct {
	name     string
	google   bool
	attempts atomic.Uint64
	down     atomic.Bool
	delegate Backend
}

func (b *faultyBackend) Name() string { return b.name }

func (b *faultyBackend) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	b.attempts.Add(1)
	if b.down.Load() {
		return nil, errors.New("backend down")
	}
	return b.delegate.AddChain(ctx, cert)
}

func (b *faultyBackend) AddPreChain(ctx context.Context, ikh [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	b.attempts.Add(1)
	if b.down.Load() {
		return nil, errors.New("backend down")
	}
	return b.delegate.AddPreChain(ctx, ikh, tbs)
}

// newFaultyPool wraps every log of a fresh pool in a faultyBackend so
// tests can kill and revive individual backends.
func newFaultyPool(t *testing.T, clock *testClock, n int, googles ...int) ([]BackendSpec, []*faultyBackend) {
	specs := newLocalPool(t, clock, n, googles...)
	faulty := make([]*faultyBackend, n)
	for i := range specs {
		faulty[i] = &faultyBackend{
			name:     specs[i].Backend.Name(),
			google:   specs[i].GoogleOperated,
			delegate: specs[i].Backend,
		}
		specs[i].Backend = faulty[i]
	}
	return specs, faulty
}

// TestFrontendFailoverRoutesAroundDeadBackend kills two backends: every
// bundle routes around them and stays policy-compliant, backoff freezes
// them out of planning, and once revived and past backoff they rejoin.
func TestFrontendFailoverRoutesAroundDeadBackend(t *testing.T) {
	clock := newTestClock()
	specs, faulty := newFaultyPool(t, clock, 5, 0, 1)
	f, err := New(Config{Backends: specs, Seed: 3, Clock: clock.Now, BackoffBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour

	// Kill every non-Google backend but one: whatever the ranking, some
	// submissions must hit a dead backend and fail over to log-4.
	faulty[2].down.Store(true)
	faulty[3].down.Store(true)

	for serial := uint64(1); serial <= 10; serial++ {
		bundle, err := f.AddPreChain(context.Background(), [32]byte{5}, testTBS(t, serial, lifetime))
		if err != nil {
			t.Fatalf("serial %d: %v", serial, err)
		}
		if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
			t.Fatalf("serial %d: bundle %v not compliant", serial, logNames(bundle))
		}
		for _, name := range logNames(bundle) {
			if name == "log-2" || name == "log-3" {
				t.Fatalf("serial %d: bundle includes dead backend %s", serial, name)
			}
		}
	}

	// The dead backends must be in backoff now and excluded from
	// planning: their attempt counters freeze.
	a2, a3 := faulty[2].attempts.Load(), faulty[3].attempts.Load()
	for serial := uint64(11); serial <= 20; serial++ {
		if _, err := f.AddPreChain(context.Background(), [32]byte{5}, testTBS(t, serial, lifetime)); err != nil {
			t.Fatalf("serial %d: %v", serial, err)
		}
	}
	if got := faulty[2].attempts.Load(); got != a2 {
		t.Fatalf("backed-off log-2 was attempted again (%d -> %d)", a2, got)
	}
	if got := faulty[3].attempts.Load(); got != a3 {
		t.Fatalf("backed-off log-3 was attempted again (%d -> %d)", a3, got)
	}

	// Revive and advance past the penalty: the backend rejoins the pool.
	faulty[2].down.Store(false)
	faulty[3].down.Store(false)
	clock.Advance(time.Hour)
	rejoined := false
	for serial := uint64(21); serial <= 40 && !rejoined; serial++ {
		bundle, err := f.AddPreChain(context.Background(), [32]byte{5}, testTBS(t, serial, lifetime))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range logNames(bundle) {
			if name == "log-2" || name == "log-3" {
				rejoined = true
			}
		}
	}
	if !rejoined {
		t.Fatal("revived backends never rejoined the pool after backoff expiry")
	}
}

func TestFrontendDegradedPoolStillServes(t *testing.T) {
	// With only one Google and one non-Google backend, killing the
	// Google one makes the healthy pool unsatisfiable — the frontend
	// must degrade to trying the backed-off backend rather than refuse,
	// and succeed once it revives.
	clock := newTestClock()
	specs, faulty := newFaultyPool(t, clock, 2, 0)
	f, err := New(Config{Backends: specs, Seed: 1, Clock: clock.Now, BackoffBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour
	faulty[0].down.Store(true)
	if _, err := f.AddPreChain(context.Background(), [32]byte{6}, testTBS(t, 1, lifetime)); !errors.Is(err, ErrSubmission) {
		t.Fatalf("err = %v, want ErrSubmission while the only Google log is down", err)
	}
	faulty[0].down.Store(false)
	// log-0 is still inside its backoff window, but the healthy pool
	// (log-1 alone) cannot satisfy the policy, so the plan must include
	// it anyway.
	bundle, err := f.AddPreChain(context.Background(), [32]byte{6}, testTBS(t, 2, lifetime))
	if err != nil {
		t.Fatal(err)
	}
	if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
		t.Fatalf("bundle %v not compliant", logNames(bundle))
	}
}

func TestFrontendDegradesMidSubmission(t *testing.T) {
	// At plan time the healthy pool {google log-0, non-Google log-1} is
	// satisfiable, so the backed-off non-Google log-2 is left out. When
	// log-1 then fails mid-flight, the re-plan must widen to the full
	// pool and complete the set from log-2 rather than refuse.
	clock := newTestClock()
	specs, faulty := newFaultyPool(t, clock, 3, 0)
	f, err := New(Config{Backends: specs, Seed: 2, Clock: clock.Now, BackoffBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	f.backends[2].mu.Lock()
	f.backends[2].backoffUntil = clock.Now().Add(time.Hour)
	f.backends[2].mu.Unlock()
	faulty[1].down.Store(true)

	lifetime := 90 * 24 * time.Hour
	bundle, err := f.AddPreChain(context.Background(), [32]byte{13}, testTBS(t, 1, lifetime))
	if err != nil {
		t.Fatalf("submission refused instead of degrading to the backed-off spare: %v", err)
	}
	if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
		t.Fatalf("bundle %v not compliant", logNames(bundle))
	}
	names := logNames(bundle)
	found := false
	for _, n := range names {
		if n == "log-2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle %v did not use the backed-off spare log-2", names)
	}
}

// slowBackend delays every call until released.
type slowBackend struct {
	name     string
	release  chan struct{}
	delegate Backend
	calls    atomic.Uint64
}

func (b *slowBackend) Name() string { return b.name }

func (b *slowBackend) wait(ctx context.Context) error {
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *slowBackend) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	b.calls.Add(1)
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.delegate.AddChain(ctx, cert)
}

func (b *slowBackend) AddPreChain(ctx context.Context, ikh [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	b.calls.Add(1)
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.delegate.AddPreChain(ctx, ikh, tbs)
}

func TestFrontendCallerCancelDoesNotPenalizeBackends(t *testing.T) {
	// The caller hangs up while both backends are in flight. The
	// submission fails with the context error, but the backends did
	// nothing wrong: no failure is recorded and no backoff imposed.
	clock := newTestClock()
	specs := newLocalPool(t, clock, 2, 0)
	slow1 := &slowBackend{name: specs[0].Backend.Name(), release: make(chan struct{}), delegate: specs[0].Backend}
	slow2 := &slowBackend{name: specs[1].Backend.Name(), release: make(chan struct{}), delegate: specs[1].Backend}
	specs[0].Backend = slow1
	specs[1].Backend = slow2
	f, err := New(Config{Backends: specs, Seed: 4, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for slow1.calls.Load() == 0 || slow2.calls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := f.AddPreChain(ctx, [32]byte{14}, testTBS(t, 1, 90*24*time.Hour)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, h := range f.Health() {
		if !h.Healthy || h.Failures != 0 || h.ConsecutiveFails != 0 {
			t.Fatalf("backend %s penalized for a caller hang-up: %+v", h.Name, h)
		}
	}
}

func TestFrontendUnsatisfiablePool(t *testing.T) {
	clock := newTestClock()
	f, err := New(Config{Backends: newLocalPool(t, clock, 3, 0, 1, 2), Seed: 1, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.AddPreChain(context.Background(), [32]byte{8}, testTBS(t, 1, 90*24*time.Hour))
	if !errors.Is(err, ErrSubmission) {
		t.Fatalf("err = %v, want ErrSubmission for an all-Google pool", err)
	}
	if !errors.Is(err, policy.ErrUnsatisfiable) {
		t.Fatalf("err = %v, should wrap policy.ErrUnsatisfiable", err)
	}
}

func TestFrontendConcurrentSubmissions(t *testing.T) {
	clock := newTestClock()
	f, err := New(Config{Backends: newLocalPool(t, clock, 6, 0, 1), Seed: 11, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bundle, err := f.AddPreChain(context.Background(), [32]byte{12}, testTBS(t, uint64(i+1), lifetime))
			if err == nil && !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
				err = fmt.Errorf("bundle %v not compliant", logNames(bundle))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
}

func TestFrontendDuplicateBackendName(t *testing.T) {
	clock := newTestClock()
	specs := newLocalPool(t, clock, 1, 0)
	if _, err := New(Config{Backends: append(specs, specs[0])}); err == nil {
		t.Fatal("duplicate backend name accepted")
	}
	if _, err := New(Config{}); !errors.Is(err, ErrNoBackends) {
		t.Fatal("empty pool accepted")
	}
}
