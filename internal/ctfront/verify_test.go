package ctfront

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/policy"
	"ctrise/internal/sct"
)

func TestFrontendQuarantinesWrongKeyBackend(t *testing.T) {
	// Backend log-2's configured verifier expects a different log's key,
	// so every SCT it returns fails signature verification. The frontend
	// must treat it exactly like a dead backend — count the bad SCT,
	// back it off, fail over — and never let one of its SCTs into a
	// bundle.
	clock := newTestClock()
	specs := newLocalPool(t, clock, 4, 0, 1)
	specs[2].Verifier = sct.NewFastVerifier("impostor-log")
	f, err := New(Config{Backends: specs, Seed: 6, Clock: clock.Now, BackoffBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour

	ikh := [32]byte{3}
	for serial := uint64(1); serial <= 20; serial++ {
		tbs := testTBS(t, serial, lifetime)
		bundle, err := f.AddPreChain(context.Background(), ikh, tbs)
		if err != nil {
			t.Fatalf("serial %d: %v", serial, err)
		}
		if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
			t.Fatalf("serial %d: bundle %v not compliant", serial, logNames(bundle))
		}
		entry := sct.PrecertEntry(ikh, tbs)
		for _, s := range bundle.SCTs {
			if s.LogName == "log-2" {
				t.Fatalf("serial %d: unverifiable backend log-2 contributed to a bundle", serial)
			}
			// Every bundled SCT must verify under its log's real key.
			if verr := sct.NewFastVerifier(s.LogName).VerifySCT(s.SCT, entry); verr != nil {
				t.Fatalf("serial %d: bundled SCT from %s does not verify: %v", serial, s.LogName, verr)
			}
		}
	}

	var quarantined BackendHealth
	for _, h := range f.Health() {
		if h.Name == "log-2" {
			quarantined = h
		}
	}
	if quarantined.BadSCTs == 0 {
		t.Fatal("log-2 was never attempted: the quarantine path went unexercised")
	}
	if quarantined.Failures < quarantined.BadSCTs {
		t.Fatalf("bad SCTs (%d) not counted as failures (%d)", quarantined.BadSCTs, quarantined.Failures)
	}
	if quarantined.Healthy {
		t.Fatal("log-2 still marked healthy after returning unverifiable SCTs")
	}
	if !quarantined.Verified {
		t.Fatal("log-2 should report a configured verifier")
	}
	if quarantined.Successes != 0 {
		t.Fatalf("log-2 recorded %d successes despite every SCT failing verification", quarantined.Successes)
	}
}

func TestFrontendBadSCTErrorSurfaces(t *testing.T) {
	// A pool where the only Google backend has a wrong key cannot build
	// a compliant bundle; the error must identify the bad-SCT cause.
	clock := newTestClock()
	specs := newLocalPool(t, clock, 2, 0)
	specs[0].Verifier = sct.NewFastVerifier("impostor-log")
	f, err := New(Config{Backends: specs, Seed: 1, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.AddPreChain(context.Background(), [32]byte{4}, testTBS(t, 1, 90*24*time.Hour))
	if !errors.Is(err, ErrSubmission) {
		t.Fatalf("err = %v, want ErrSubmission", err)
	}
	if !errors.Is(err, ErrBadSCT) {
		t.Fatalf("err = %v, should wrap ErrBadSCT", err)
	}
}

// laggyBackend advances the virtual clock on every call, simulating a
// backend whose responses cost lag of replay time. The clock is the one
// every concurrent attempt reads its latency from, so before advancing
// it the backend calls settle, which must return only once every
// attempt in flight beside it has recorded its latency; otherwise the
// lag is charged to whichever of them reads the clock after the advance.
type laggyBackend struct {
	delegate Backend
	clock    *testClock
	lag      time.Duration
	settle   func()
}

func (b *laggyBackend) Name() string { return b.delegate.Name() }

func (b *laggyBackend) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	b.settle()
	b.clock.Advance(b.lag)
	return b.delegate.AddChain(ctx, cert)
}

func (b *laggyBackend) AddPreChain(ctx context.Context, ikh [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	b.settle()
	b.clock.Advance(b.lag)
	return b.delegate.AddPreChain(ctx, ikh, tbs)
}

// successes is name's success count in f's health report.
func successes(f *Frontend, name string) uint64 {
	for _, h := range f.Health() {
		if h.Name == name {
			return h.Successes
		}
	}
	return 0
}

func TestFrontendCommittedWeightsShiftRouting(t *testing.T) {
	// log-1 answers with ~20ms of (virtual) latency; the others are
	// instant. Until CommitWeights runs, routing must ignore the
	// observations entirely; after the commit, log-1's weight puts it at
	// the back of every ranking, so it drops out of bundles while
	// cheaper equivalents exist.
	//
	// log-0 is the pool's only Google log, so every bundle needs it and
	// it is in flight beside log-1 whenever log-1 is picked. log-0 always
	// succeeds, so once it has recorded as many successes as there have
	// been submissions, its attempt for the current one is finished and
	// log-1's lag can no longer land in log-0's latency.
	type pool struct {
		f         *Frontend
		submitted atomic.Uint64 // submissions started
	}
	mk := func() *pool {
		clock := newTestClock()
		specs := newLocalPool(t, clock, 4, 0)
		p := &pool{}
		settle := func() {
			for successes(p.f, "log-0") < p.submitted.Load() {
				runtime.Gosched()
			}
		}
		specs[1].Backend = &laggyBackend{delegate: specs[1].Backend, clock: clock, lag: 20 * time.Millisecond, settle: settle}
		f, err := New(Config{Backends: specs, Seed: 17, Clock: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		p.f = f
		return p
	}
	run := func(p *pool, from, to uint64) [][]string {
		var names [][]string
		for serial := from; serial <= to; serial++ {
			p.submitted.Add(1)
			bundle, err := p.f.AddPreChain(context.Background(), [32]byte{11}, testTBS(t, serial, 90*24*time.Hour))
			if err != nil {
				t.Fatalf("serial %d: %v", serial, err)
			}
			names = append(names, logNames(bundle))
		}
		return names
	}

	p1 := mk()
	f1 := p1.f
	before := run(p1, 1, 12)
	sawLaggy := false
	for _, names := range before {
		for _, n := range names {
			if n == "log-1" {
				sawLaggy = true
			}
		}
	}
	if !sawLaggy {
		t.Fatal("log-1 never routed before the commit; the latency observation went unexercised")
	}

	f1.CommitWeights()
	for _, h := range f1.Health() {
		if h.Name == "log-1" && h.Weight == 0 {
			t.Fatal("log-1's 20ms latency EWMA did not move its committed weight")
		}
		if h.Name != "log-1" && h.Weight != 0 {
			t.Fatalf("instant backend %s got weight %d", h.Name, h.Weight)
		}
	}
	after := run(p1, 13, 24)
	for i, names := range after {
		for _, n := range names {
			if n == "log-1" {
				t.Fatalf("post-commit serial %d still routed to the slow log-1 (bundle %v)", 13+i, names)
			}
		}
	}

	// Determinism: an identically configured frontend replaying the same
	// submissions with the same commit point routes identically.
	p2 := mk()
	before2 := run(p2, 1, 12)
	p2.f.CommitWeights()
	after2 := run(p2, 13, 24)
	if !reflect.DeepEqual(before, before2) || !reflect.DeepEqual(after, after2) {
		t.Fatal("weight-aware routing diverged between identical replays")
	}
}

// flakyCountBackend fails its first failures calls, then delegates.
type flakyCountBackend struct {
	delegate Backend
	failures int
	calls    int
}

func (b *flakyCountBackend) Name() string { return b.delegate.Name() }

func (b *flakyCountBackend) fail() bool {
	b.calls++
	return b.calls <= b.failures
}

func (b *flakyCountBackend) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	if b.fail() {
		return nil, errors.New("backend restarting")
	}
	return b.delegate.AddChain(ctx, cert)
}

func (b *flakyCountBackend) AddPreChain(ctx context.Context, ikh [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	if b.fail() {
		return nil, errors.New("backend restarting")
	}
	return b.delegate.AddPreChain(ctx, ikh, tbs)
}

func TestFrontendMultiPassRidesOutRestart(t *testing.T) {
	// The only Google backend fails its first call (mid-restart) — with
	// a single pass the submission is lost, with MaxSubmitPasses > 1 the
	// next pass finds it recovered and completes the bundle, keeping the
	// SCT the first pass already collected.
	mk := func(passes int) (*Frontend, *flakyCountBackend) {
		clock := newTestClock()
		specs := newLocalPool(t, clock, 2, 0)
		flaky := &flakyCountBackend{delegate: specs[0].Backend, failures: 1}
		specs[0].Backend = flaky
		f, err := New(Config{
			Backends:        specs,
			Seed:            2,
			Clock:           clock.Now,
			BackoffBase:     time.Hour,
			MaxSubmitPasses: passes,
			RetryPause:      time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f, flaky
	}
	lifetime := 90 * 24 * time.Hour

	single, _ := mk(1)
	if _, err := single.AddPreChain(context.Background(), [32]byte{15}, testTBS(t, 1, lifetime)); !errors.Is(err, ErrSubmission) {
		t.Fatalf("single-pass err = %v, want ErrSubmission", err)
	}

	multi, flaky := mk(3)
	bundle, err := multi.AddPreChain(context.Background(), [32]byte{15}, testTBS(t, 1, lifetime))
	if err != nil {
		t.Fatalf("multi-pass submission failed: %v", err)
	}
	if !policy.SetCompliant(bundleCandidates(multi, bundle), lifetime) {
		t.Fatalf("bundle %v not compliant", logNames(bundle))
	}
	if flaky.calls != 2 {
		t.Fatalf("restarting backend called %d times, want 2 (one failed pass, one recovery)", flaky.calls)
	}
	// The non-Google SCT collected by pass one must have been carried,
	// not re-fetched: exactly one SCT per log.
	seen := map[string]int{}
	for _, s := range bundle.SCTs {
		seen[s.LogName]++
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("log %s appears %d times in the bundle", name, n)
		}
	}
}
