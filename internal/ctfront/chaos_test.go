package ctfront

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"ctrise/internal/chaos"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/policy"
	"ctrise/internal/sct"
)

// newChaosRemotePool serves n in-process logs over httptest, wiring each
// ctclient backend through its own chaos.Transport so tests can script
// per-backend network faults. The explicit per-backend verifier keeps
// the remote pool signature-verified, the posture cmd/ctfront defaults
// to.
func newChaosRemotePool(t *testing.T, clock *testClock, scheds []chaos.Schedule, googles ...int) ([]BackendSpec, []*chaos.Transport) {
	t.Helper()
	isGoogle := map[int]bool{}
	for _, g := range googles {
		isGoogle[g] = true
	}
	specs := make([]BackendSpec, len(scheds))
	transports := make([]*chaos.Transport, len(scheds))
	for i := range scheds {
		name := string(rune('a'+i)) + "-log"
		op := "op-" + name
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
		srv := httptest.NewServer(l.Handler())
		t.Cleanup(srv.Close)
		transports[i] = chaos.NewTransport(nil, scheds[i])
		client := ctclient.New(srv.URL, nil)
		client.HTTPClient = &http.Client{Transport: transports[i]}
		specs[i] = BackendSpec{
			Backend:        ctclient.NewSubmitter(name, client),
			Operator:       op,
			GoogleOperated: isGoogle[i],
			Verifier:       sct.NewFastVerifier(name),
		}
	}
	return specs, transports
}

func TestFrontendChaosTransportFailoverAcrossPasses(t *testing.T) {
	// Every non-Google backend's first request is a scripted 503: pass
	// one burns through all three (each failure re-planning onto the
	// next spare), leaving only the Google SCT. The second pass retries
	// the backed-off pool and completes the bundle — zero submissions
	// lost to a fault wave that briefly took out an entire policy group.
	clock := newTestClock()
	scheds := []chaos.Schedule{
		{}, // a-log (Google): clean
		{Script: []chaos.Plan{chaos.Plan503}},
		{Script: []chaos.Plan{chaos.Plan503}},
		{Script: []chaos.Plan{chaos.Plan503}},
	}
	specs, transports := newChaosRemotePool(t, clock, scheds, 0)
	f, err := New(Config{
		Backends:        specs,
		Seed:            9,
		Clock:           clock.Now,
		BackoffBase:     time.Hour,
		MaxSubmitPasses: 2,
		RetryPause:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour
	bundle, err := f.AddPreChain(context.Background(), [32]byte{21}, testTBS(t, 1, lifetime))
	if err != nil {
		t.Fatalf("submission lost to a transient 503 wave: %v", err)
	}
	if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
		t.Fatalf("bundle %v not compliant", logNames(bundle))
	}
	if len(bundle.SCTs) != 2 {
		t.Fatalf("bundle has %d SCTs, want 2", len(bundle.SCTs))
	}

	// The injected faults actually fired: one 503 per non-Google
	// transport, consumed during the first pass's failover chain.
	var injected uint64
	for i, tr := range transports[1:] {
		if n := tr.Counts()[chaos.Plan503]; n != 1 {
			t.Fatalf("transport %d injected %d 503s, want 1", i+1, n)
		}
		injected += tr.Counts()[chaos.Plan503]
	}
	if injected != 3 {
		t.Fatalf("injected %d 503s, want 3", injected)
	}

	// Backoff bookkeeping: every non-Google backend was penalized once;
	// the one that served pass two recovered (consecutive fails reset),
	// the other two are still quarantined until their penalty expires.
	var recovered, quarantined int
	for _, h := range f.Health() {
		if h.GoogleOperated {
			continue
		}
		if h.Failures != 1 {
			t.Fatalf("backend %s has %d failures, want 1", h.Name, h.Failures)
		}
		if h.Successes > 0 {
			if !h.Healthy || h.ConsecutiveFails != 0 {
				t.Fatalf("recovered backend %s still penalized: %+v", h.Name, h)
			}
			recovered++
		} else {
			if h.Healthy {
				t.Fatalf("failed backend %s not in backoff: %+v", h.Name, h)
			}
			quarantined++
		}
	}
	if recovered != 1 || quarantined != 2 {
		t.Fatalf("recovered=%d quarantined=%d, want 1 and 2", recovered, quarantined)
	}
}

func TestFrontendChaosDelayedTransportTimesOut(t *testing.T) {
	// b-log's transport delays its first request past Config.Timeout.
	// The attempt times out while the caller still waits, so b-log is
	// charged a failure and backoff, and the gap it leaves is re-planned
	// onto the spare c-log, which completes a compliant bundle.
	clock := newTestClock()
	delay := 250 * time.Millisecond
	scheds := []chaos.Schedule{
		{}, // a-log (Google): clean
		{Script: []chaos.Plan{chaos.PlanDelay}, Delay: delay},
		{}, // c-log: clean spare
	}
	specs, transports := newChaosRemotePool(t, clock, scheds, 0)
	f, err := New(Config{Backends: specs, Seed: 5, Clock: clock.Now, Timeout: 50 * time.Millisecond, BackoffBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// A heavier committed weight ranks c-log after b-log, so the plan
	// picks the delayed backend and c-log is the spare.
	f.backends[2].mu.Lock()
	f.backends[2].weight = 1
	f.backends[2].mu.Unlock()

	lifetime := 90 * 24 * time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bundle, err := f.AddPreChain(ctx, [32]byte{22}, testTBS(t, 1, lifetime))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatalf("caller's ctx ended (%v); the attempt must time out on its own", ctx.Err())
	}
	if !policy.SetCompliant(bundleCandidates(f, bundle), lifetime) {
		t.Fatalf("bundle %v not compliant", logNames(bundle))
	}
	if names := logNames(bundle); !slices.Contains(names, "c-log") || slices.Contains(names, "b-log") {
		t.Fatalf("bundle %v, want the spare c-log in place of the timed-out b-log", names)
	}
	if n := transports[1].Counts()[chaos.PlanDelay]; n != 1 {
		t.Fatalf("b-log's transport delayed %d requests, want 1", n)
	}
	if n := transports[2].Requests(); n != 1 {
		t.Fatalf("c-log's transport saw %d requests, want 1", n)
	}
	health := f.Health()
	if b := health[1]; b.Failures != 1 || b.ConsecutiveFails != 1 || b.Healthy || !b.BackoffUntil.Equal(clock.Now().Add(time.Minute)) {
		t.Fatalf("timed-out b-log not charged a failure and backoff: %+v", b)
	}
	if c := health[2]; c.Successes != 1 || c.Failures != 0 {
		t.Fatalf("spare c-log: %+v, want 1 success and no failure", c)
	}
}
