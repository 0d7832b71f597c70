package ctfront

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/policy"
	"ctrise/internal/sct"
)

// newRemotePool serves n in-process logs over httptest and wraps them
// in ctclient.Submitter backends, returning the servers for kill tests.
func newRemotePool(t *testing.T, clock *testClock, n int, googles ...int) ([]BackendSpec, []*httptest.Server) {
	t.Helper()
	isGoogle := map[int]bool{}
	for _, g := range googles {
		isGoogle[g] = true
	}
	specs := make([]BackendSpec, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
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
		servers[i] = srv
		specs[i] = BackendSpec{
			Backend:        ctclient.NewSubmitter(name, ctclient.New(srv.URL, nil)),
			Operator:       op,
			GoogleOperated: isGoogle[i],
		}
	}
	return specs, servers
}

func postAddPreChain(t *testing.T, url string, ikh [32]byte, tbs []byte) (*http.Response, AddChainResponse) {
	t.Helper()
	body, _ := json.Marshal(ctlog.AddChainRequest{Chain: []string{
		base64.StdEncoding.EncodeToString(tbs),
		base64.StdEncoding.EncodeToString(ikh[:]),
	}})
	resp, err := http.Post(url+"/ctfront/v1/add-pre-chain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out AddChainResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestFrontendHTTPRoundTrip(t *testing.T) {
	clock := newTestClock()
	specs, _ := newRemotePool(t, clock, 4, 0, 1)
	f, err := New(Config{Backends: specs, Seed: 21, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	lifetime := 90 * 24 * time.Hour
	resp, bundle := postAddPreChain(t, front.URL, [32]byte{1}, testTBS(t, 1, lifetime))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(bundle.SCTs) != 2 {
		t.Fatalf("bundle has %d SCTs, want 2", len(bundle.SCTs))
	}
	cands := make([]policy.Candidate, len(bundle.SCTs))
	for i, s := range bundle.SCTs {
		if s.LogName == "" || s.Operator == "" || s.Signature == "" || s.ID == "" {
			t.Fatalf("incomplete bundle SCT: %+v", s)
		}
		cands[i] = policy.Candidate{Name: s.LogName, Operator: s.Operator, GoogleOperated: s.Operator == "Google"}
	}
	if !policy.SetCompliant(cands, lifetime) {
		t.Fatalf("HTTP bundle not compliant: %+v", bundle.SCTs)
	}

	// Health endpoint reflects the successes.
	hresp, err := http.Get(front.URL + "/ctfront/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Backends) != 4 {
		t.Fatalf("health lists %d backends, want 4", len(health.Backends))
	}
	var successes uint64
	for _, b := range health.Backends {
		if !b.Healthy {
			t.Fatalf("backend %s unexpectedly unhealthy", b.Name)
		}
		successes += b.Successes
	}
	if successes != 2 {
		t.Fatalf("health counts %d successes, want 2", successes)
	}
}

// TestFrontendHTTPBadRequests: both submission paths answer a malformed
// body 400 and an over-cap body 413, from ctlog's add-chain parser
// (ctlog.ReadAddChain, ReadAddPreChain).
func TestFrontendHTTPBadRequests(t *testing.T) {
	clock := newTestClock()
	specs, _ := newRemotePool(t, clock, 2, 0)
	f, err := New(Config{Backends: specs, Seed: 21, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}

	// Larger than the base64 of any loggable certificate, so over the
	// body cap the frontend shares with ctlog (about 22.4 MB).
	oversize := `{"chain":["` + strings.Repeat("A", 24<<20) + `"]}`
	for _, tc := range []struct {
		path, name, body string
		want             int
	}{
		{"add-chain", "empty body", ``, http.StatusBadRequest},
		{"add-chain", "no chain", `{"chain":[]}`, http.StatusBadRequest},
		{"add-chain", "bad base64", `{"chain":["!!!"]}`, http.StatusBadRequest},
		{"add-chain", "oversize body", oversize, http.StatusRequestEntityTooLarge},
		{"add-pre-chain", "empty body", ``, http.StatusBadRequest},
		{"add-pre-chain", "no chain", `{"chain":[]}`, http.StatusBadRequest},
		{"add-pre-chain", "one element", `{"chain":["aaaa"]}`, http.StatusBadRequest},
		{"add-pre-chain", "bad base64", `{"chain":["!!!","!!!"]}`, http.StatusBadRequest},
		{"add-pre-chain", "short key hash", `{"chain":["aaaa","aaaa"]}`, http.StatusBadRequest},
		{"add-pre-chain", "oversize body", oversize, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ctfront/v1/"+tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.path, tc.name, rec.Code, tc.want)
		}
	}
	// Every row was refused before the fan-out.
	for _, h := range f.Health() {
		if h.Successes != 0 || h.Failures != 0 {
			t.Fatalf("backend %s was attempted: %+v", h.Name, h)
		}
	}
}

func TestFrontendHTTPKilledBackendFailover(t *testing.T) {
	// Remote pool with two Google and three non-Google logs; kill one
	// server mid-run. Submissions must keep succeeding with compliant
	// bundles that route around the dead server, and the health
	// endpoint must report it unhealthy.
	clock := newTestClock()
	specs, servers := newRemotePool(t, clock, 5, 0, 1)
	f, err := New(Config{Backends: specs, Seed: 33, Clock: clock.Now, BackoffBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	lifetime := 90 * 24 * time.Hour

	for serial := uint64(1); serial <= 5; serial++ {
		resp, _ := postAddPreChain(t, front.URL, [32]byte{2}, testTBS(t, serial, lifetime))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up serial %d: status %d", serial, resp.StatusCode)
		}
	}

	// Kill a non-Google backend: index 2 ("c-log").
	servers[2].Close()
	killed := specs[2].Backend.Name()

	for serial := uint64(6); serial <= 25; serial++ {
		resp, bundle := postAddPreChain(t, front.URL, [32]byte{2}, testTBS(t, serial, lifetime))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill serial %d: status %d", serial, resp.StatusCode)
		}
		cands := make([]policy.Candidate, len(bundle.SCTs))
		for i, s := range bundle.SCTs {
			if s.LogName == killed {
				t.Fatalf("serial %d: bundle contains killed backend %s", serial, killed)
			}
			cands[i] = policy.Candidate{Name: s.LogName, Operator: s.Operator, GoogleOperated: s.Operator == "Google"}
		}
		if !policy.SetCompliant(cands, lifetime) {
			t.Fatalf("serial %d: post-kill bundle not compliant: %v", serial, cands)
		}
	}

	var sawUnhealthy bool
	for _, h := range f.Health() {
		if h.Name == killed && !h.Healthy {
			sawUnhealthy = true
		}
	}
	if !sawUnhealthy {
		t.Fatalf("killed backend %s never marked unhealthy", killed)
	}
}
