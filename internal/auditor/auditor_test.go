package auditor_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctrise/internal/auditor"
	"ctrise/internal/chaos"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
)

const logName = "chaos-log"

// chaosWorld is one misbehaving-capable log served over HTTP, with a
// virtual clock shared by the log and the auditors under test.
type chaosWorld struct {
	t     *testing.T
	mu    sync.Mutex
	now   time.Time
	chaos *chaos.Log
	srv   *httptest.Server
}

func newChaosWorld(t *testing.T, entries int) *chaosWorld {
	return newChaosWorldProxied(t, entries, nil)
}

// newChaosWorldProxied additionally routes all HTTP through a chaos
// Proxy with the given fault schedule.
func newChaosWorldProxied(t *testing.T, entries int, sched *chaos.Schedule) *chaosWorld {
	t.Helper()
	w := &chaosWorld{t: t, now: time.Date(2018, 4, 12, 14, 0, 0, 0, time.UTC)}
	signer := sct.NewFastSigner(logName)
	honest, err := ctlog.New(ctlog.Config{Name: logName, Signer: signer, Clock: w.Now})
	if err != nil {
		t.Fatal(err)
	}
	w.chaos = chaos.NewLog(honest, signer, w.Now)
	for i := 0; i < entries; i++ {
		if _, err := honest.AddChain([]byte(fmt.Sprintf("seed-cert-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := honest.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	var h http.Handler = w.chaos.Handler()
	if sched != nil {
		h = chaos.NewProxy(h, *sched)
	}
	w.srv = httptest.NewServer(h)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *chaosWorld) Now() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

func (w *chaosWorld) Advance(d time.Duration) {
	w.mu.Lock()
	w.now = w.now.Add(d)
	w.mu.Unlock()
}

// Grow appends n entries to the honest log and publishes a new head.
func (w *chaosWorld) Grow(n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		cert := fmt.Sprintf("grown-cert-%d-%d", w.chaos.Honest().TreeSize(), i)
		if _, err := w.chaos.Honest().AddChain([]byte(cert)); err != nil {
			w.t.Fatal(err)
		}
	}
	if _, err := w.chaos.Honest().PublishSTH(); err != nil {
		w.t.Fatal(err)
	}
}

// Submit stages a certificate (without publishing) and returns its SCT.
func (w *chaosWorld) Submit(cert []byte) *sct.SignedCertificateTimestamp {
	w.t.Helper()
	s, err := w.chaos.Honest().AddChain(cert)
	if err != nil {
		w.t.Fatal(err)
	}
	return s
}

// testAuditor is an Auditor whose alerts and streamed entries the test
// collects through Config.OnAlert and Config.OnEntry.
type testAuditor struct {
	*auditor.Auditor
	mu      sync.Mutex
	alerts  []auditor.Alert
	entries map[string]uint64
}

// newTestAuditor is auditor.New with the collecting hooks installed
// ahead of any the caller set.
func newTestAuditor(cfg auditor.Config) (*testAuditor, error) {
	ta := &testAuditor{entries: make(map[string]uint64)}
	onAlert, onEntry := cfg.OnAlert, cfg.OnEntry
	cfg.OnAlert = func(al auditor.Alert) {
		ta.mu.Lock()
		ta.alerts = append(ta.alerts, al)
		ta.mu.Unlock()
		if onAlert != nil {
			onAlert(al)
		}
	}
	cfg.OnEntry = func(log string, e *ctlog.Entry) {
		ta.mu.Lock()
		ta.entries[log]++
		ta.mu.Unlock()
		if onEntry != nil {
			onEntry(log, e)
		}
	}
	a, err := auditor.New(cfg)
	if err != nil {
		return nil, err
	}
	ta.Auditor = a
	return ta, nil
}

// Alerts returns every alert raised so far, in detection order.
func (ta *testAuditor) Alerts() []auditor.Alert {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return append([]auditor.Alert(nil), ta.alerts...)
}

// EntriesSeen returns how many entries this auditor has streamed from
// log.
func (ta *testAuditor) EntriesSeen(log string) uint64 {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return ta.entries[log]
}

// NewAuditor builds a single-log auditor over the world's server. A
// non-nil transport pins the auditor's HTTP client (e.g. to the shadow
// view); stateDir enables chain persistence.
func (w *chaosWorld) NewAuditor(stateDir string, transport http.RoundTripper) *testAuditor {
	w.t.Helper()
	client := ctclient.New(w.srv.URL, sct.NewFastVerifier(logName))
	if transport != nil {
		client.HTTPClient = &http.Client{Transport: transport}
	}
	a, err := newTestAuditor(auditor.Config{
		Logs:           []auditor.LogConfig{{Name: logName, Client: client, MMD: time.Hour}},
		StateDir:       stateDir,
		SpotCheckEvery: 1,
		RetryBase:      time.Millisecond,
		Clock:          w.Now,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { a.Close() })
	return a
}

// pollClean runs one audit pass that must neither error nor alert.
func pollClean(t *testing.T, a *testAuditor) {
	t.Helper()
	before := len(a.Alerts())
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatalf("clean poll failed: %v", err)
	}
	if got := a.Alerts(); len(got) != before {
		t.Fatalf("clean poll raised alerts: %v", got[before:])
	}
}

// pollFaulty runs one audit pass against an active fault: misbehavior
// must surface as alerts, never as an operational error.
func pollFaulty(t *testing.T, a *testAuditor) {
	t.Helper()
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatalf("faulty poll returned an operational error instead of alerting: %v", err)
	}
}

func classesOf(alerts []auditor.Alert) []auditor.AlertClass {
	out := make([]auditor.AlertClass, len(alerts))
	for i, al := range alerts {
		out[i] = al.Class
	}
	return out
}

// faultScenarios is the E2E fault matrix: every injected fault class
// with exactly the typed alerts it must raise. TestFaultMatrix asserts
// each scenario; TestAlertRegression pins the rendered outcome to
// testdata/alerts.golden.
var faultScenarios = []struct {
	name string
	want []auditor.AlertClass
	run  func(t *testing.T) []auditor.Alert
}{
	{
		name: "rollback",
		want: []auditor.AlertClass{auditor.AlertRollback},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 3)
			a := w.NewAuditor("", nil)
			pollClean(t, a) // verifies and records size 3
			w.Grow(2)
			pollClean(t, a) // verifies size 5
			w.chaos.SetFault(chaos.FaultRollback)
			pollFaulty(t, a) // log re-serves the recorded size-3 head
			return a.Alerts()
		},
	},
	{
		name: "same-size-equivocation",
		want: []auditor.AlertClass{auditor.AlertEquivocation},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 3)
			a := w.NewAuditor("", nil)
			pollClean(t, a)
			w.chaos.SetFault(chaos.FaultEquivocate)
			pollFaulty(t, a) // same size, different (validly signed) root
			return a.Alerts()
		},
	},
	{
		name: "fork",
		want: []auditor.AlertClass{auditor.AlertFork},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 3)
			a := w.NewAuditor("", nil)
			pollClean(t, a)
			w.Grow(2)
			w.chaos.SetFault(chaos.FaultFork)
			pollFaulty(t, a) // larger forked head, unlinkable history
			return a.Alerts()
		},
	},
	{
		name: "bad-signature",
		want: []auditor.AlertClass{auditor.AlertBadSignature},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 3)
			a := w.NewAuditor("", nil)
			w.chaos.SetFault(chaos.FaultBadSignature)
			pollFaulty(t, a) // head the log never signed
			return a.Alerts()
		},
	},
	{
		name: "mmd-violation",
		want: []auditor.AlertClass{auditor.AlertMMDViolation},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 1)
			a := w.NewAuditor("", nil)
			pollClean(t, a)
			cert := []byte("promised-but-never-merged")
			s := w.Submit(cert)
			e := &ctlog.Entry{Timestamp: s.Timestamp, Type: sct.X509LogEntryType, Cert: cert}
			lh, err := e.LeafHash()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.ExpectInclusion(logName, lh, s.Timestamp); err != nil {
				t.Fatal(err)
			}
			w.chaos.SetFault(chaos.FaultWithhold) // head pinned before the merge
			w.Advance(2 * time.Hour)              // MMD is 1h
			pollFaulty(t, a)                      // fresh-timestamp head, entry still missing
			return a.Alerts()
		},
	},
	{
		name: "corrupt-entry",
		want: []auditor.AlertClass{auditor.AlertBadEntry, auditor.AlertBadEntry},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 2)
			a := w.NewAuditor("", nil)
			w.chaos.SetFault(chaos.FaultCorruptEntries)
			pollFaulty(t, a) // honest head, tampered entry bodies
			return a.Alerts()
		},
	},
	{
		name: "split-view",
		want: []auditor.AlertClass{auditor.AlertEquivocation, auditor.AlertEquivocation},
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorld(t, 3)
			w.chaos.SetFault(chaos.FaultSplitView)
			a := w.NewAuditor("", nil)
			b := w.NewAuditor("", chaos.ViewTransport(nil, chaos.ViewShadow))
			// Each vantage point alone audits clean: both views are
			// internally consistent, validly signed histories.
			pollClean(t, a)
			pollClean(t, b)
			// Gossip exposes the split: first a learns of b's head, then
			// the reverse.
			ctx := context.Background()
			if err := a.CrossCheck(ctx, b.GossipSTHs()); err != nil {
				t.Fatalf("cross-check a<-b: %v", err)
			}
			if err := b.CrossCheck(ctx, a.GossipSTHs()); err != nil {
				t.Fatalf("cross-check b<-a: %v", err)
			}
			return append(a.Alerts(), b.Alerts()...)
		},
	},
	{
		name: "network-chaos",
		want: nil, // an honest log behind a hostile network must audit clean
		run: func(t *testing.T) []auditor.Alert {
			w := newChaosWorldProxied(t, 3, &chaos.Schedule{
				Seed:          7,
				ResetOneIn:    7,
				ErrOneIn:      6,
				TruncateOneIn: 8,
				ErrBurst:      2,
			})
			a := w.NewAuditor("", nil)
			// Faults can exhaust a poll's retry budget — that is an
			// operational error, not misbehavior, so polls are retried
			// until the auditor has consumed the whole log.
			for i := 0; i < 20 && a.EntriesSeen(logName) < 5; i++ {
				if i == 4 {
					w.Grow(2)
				}
				_ = a.PollOnce(context.Background())
			}
			if got := a.EntriesSeen(logName); got != 5 {
				t.Fatalf("auditor consumed %d entries through the chaos proxy, want 5", got)
			}
			return a.Alerts()
		},
	},
}

// TestFaultMatrix requires each injected fault class to raise exactly
// its expected typed alerts: rollback, fork, same-size and split-view
// equivocation, bad STH signatures, MMD violations and corrupt entry
// bodies; an honest log behind scripted network chaos raises none.
func TestFaultMatrix(t *testing.T) {
	for _, sc := range faultScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := classesOf(sc.run(t))
			if len(got) != len(sc.want) {
				t.Fatalf("alerts = %v, want %v", got, sc.want)
			}
			for i := range got {
				if got[i] != sc.want[i] {
					t.Fatalf("alerts = %v, want %v", got, sc.want)
				}
			}
		})
	}
}

// TestAlertsCarryContext checks the alert payload is actionable: log
// name, class, tree size, and a detail string.
func TestAlertsCarryContext(t *testing.T) {
	w := newChaosWorld(t, 3)
	var fired []auditor.Alert
	client := ctclient.New(w.srv.URL, sct.NewFastVerifier(logName))
	a, err := newTestAuditor(auditor.Config{
		Logs:      []auditor.LogConfig{{Name: logName, Client: client}},
		RetryBase: time.Millisecond,
		Clock:     w.Now,
		OnAlert:   func(al auditor.Alert) { fired = append(fired, al) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pollClean(t, a)
	w.Grow(2)
	pollClean(t, a)
	w.chaos.SetFault(chaos.FaultRollback)
	pollFaulty(t, a)

	alerts := a.Alerts()
	if len(alerts) != 1 || len(fired) != 1 {
		t.Fatalf("want exactly one alert (got %d) and one OnAlert call (got %d)", len(alerts), len(fired))
	}
	al := alerts[0]
	if al.Log != logName || al.Class != auditor.AlertRollback {
		t.Fatalf("alert misattributed: %+v", al)
	}
	if al.TreeSize != 5 {
		t.Fatalf("alert tree size = %d, want the verified size 5", al.TreeSize)
	}
	if al.Detail == "" || al.String() == "" {
		t.Fatalf("alert lacks detail: %+v", al)
	}
	if !al.Time.Equal(w.Now()) {
		t.Fatalf("alert time = %v, want virtual now %v", al.Time, w.Now())
	}

	// The same persistent fault on the next poll must not duplicate.
	pollFaulty(t, a)
	if got := a.Alerts(); len(got) != 1 {
		t.Fatalf("persistent fault re-alerted: %d alerts", len(got))
	}
}

// TestOnEntryFeedsAnalytics checks the streamed-entry hook sees every
// audited entry exactly once.
func TestOnEntryFeedsAnalytics(t *testing.T) {
	w := newChaosWorld(t, 4)
	var mu sync.Mutex
	seen := make(map[uint64]int)
	client := ctclient.New(w.srv.URL, sct.NewFastVerifier(logName))
	a, err := newTestAuditor(auditor.Config{
		Logs:      []auditor.LogConfig{{Name: logName, Client: client}},
		RetryBase: time.Millisecond,
		Clock:     w.Now,
		OnEntry: func(log string, e *ctlog.Entry) {
			mu.Lock()
			seen[e.Index]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pollClean(t, a)
	w.Grow(2)
	pollClean(t, a)
	if len(seen) != 6 {
		t.Fatalf("OnEntry saw %d distinct entries, want 6", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("entry %d delivered %d times", idx, n)
		}
	}
}

func TestAuditorRequiresVerifier(t *testing.T) {
	client := &ctclient.Client{BaseURL: "http://unused.invalid"}
	_, err := auditor.New(auditor.Config{
		Logs: []auditor.LogConfig{{Name: "naked-log", Client: client}},
	})
	if err == nil {
		t.Fatal("auditor accepted a log without a verifier; audits must be cryptographic")
	}
}
