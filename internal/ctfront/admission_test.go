package ctfront

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctrise/internal/ctlog"
)

func postRaw(t *testing.T, url string, ikh [32]byte, tbs []byte) *http.Response {
	t.Helper()
	body, _ := json.Marshal(ctlog.AddChainRequest{Chain: []string{
		base64.StdEncoding.EncodeToString(tbs),
		base64.StdEncoding.EncodeToString(ikh[:]),
	}})
	resp, err := http.Post(url+"/ctfront/v1/add-pre-chain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestFrontendHTTPClientRateLimit(t *testing.T) {
	// One token in the client bucket, refilled on the (virtual) clock:
	// the second request sheds with 429 + Retry-After, and advancing the
	// clock readmits the client.
	clock := newTestClock()
	specs := newLocalPool(t, clock, 4, 0, 1)
	f, err := New(Config{
		Backends:    specs,
		Seed:        30,
		Clock:       clock.Now,
		ClientRate:  1,
		ClientBurst: 1,
		RetryAfter:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	lifetime := 90 * 24 * time.Hour

	if resp := postRaw(t, front.URL, [32]byte{31}, testTBS(t, 1, lifetime)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp := postRaw(t, front.URL, [32]byte{31}, testTBS(t, 2, lifetime))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	clock.Advance(3 * time.Second)
	if resp := postRaw(t, front.URL, [32]byte{31}, testTBS(t, 3, lifetime)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill request: status %d, want 200", resp.StatusCode)
	}
	if s := f.AdmissionStats(); s.ShedClientRate != 1 || s.Admitted != 2 {
		t.Fatalf("stats = %+v, want 1 client shed and 2 admitted", s)
	}
}

func TestFrontendHTTPGlobalRateLimit(t *testing.T) {
	clock := newTestClock()
	specs := newLocalPool(t, clock, 4, 0, 1)
	f, err := New(Config{
		Backends:    specs,
		Seed:        30,
		Clock:       clock.Now,
		GlobalRate:  1,
		GlobalBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	lifetime := 90 * 24 * time.Hour

	for serial := uint64(1); serial <= 2; serial++ {
		if resp := postRaw(t, front.URL, [32]byte{32}, testTBS(t, serial, lifetime)); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d, want 200", serial, resp.StatusCode)
		}
	}
	resp := postRaw(t, front.URL, [32]byte{32}, testTBS(t, 3, lifetime))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s := f.AdmissionStats(); s.ShedGlobalRate != 1 {
		t.Fatalf("stats = %+v, want 1 global shed", s)
	}
}

func TestFrontendHTTPMaxInflightSheds(t *testing.T) {
	// MaxInflight 1 with the single permitted submission parked inside a
	// slow backend: the concurrent request must shed 503 immediately
	// (no queueing), and the parked one still completes.
	clock := newTestClock()
	specs := newLocalPool(t, clock, 2, 0)
	slow := &slowBackend{name: specs[1].Backend.Name(), release: make(chan struct{}), delegate: specs[1].Backend}
	specs[1].Backend = slow
	f, err := New(Config{Backends: specs, Seed: 30, Clock: clock.Now, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	lifetime := 90 * 24 * time.Hour

	parkedTBS := testTBS(t, 1, lifetime)
	first := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(ctlog.AddChainRequest{Chain: []string{
			base64.StdEncoding.EncodeToString(parkedTBS),
			base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{33}, 32)),
		}})
		resp, err := http.Post(front.URL+"/ctfront/v1/add-pre-chain", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		first <- resp
	}()
	for slow.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	resp := postRaw(t, front.URL, [32]byte{34}, testTBS(t, 2, lifetime))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(slow.release)
	if resp := <-first; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("parked submission did not complete cleanly: %+v", resp)
	}
	if s := f.AdmissionStats(); s.ShedInflight != 1 || s.Inflight != 0 {
		t.Fatalf("stats = %+v, want 1 inflight shed and 0 in flight", s)
	}
}

func TestFrontendHTTPDrainRefusesSubmissionsServesReads(t *testing.T) {
	clock := newTestClock()
	specs := newLocalPool(t, clock, 4, 0, 1)
	f, err := New(Config{Backends: specs, Seed: 30, Clock: clock.Now, RetryAfter: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	lifetime := 90 * 24 * time.Hour

	if resp := postRaw(t, front.URL, [32]byte{35}, testTBS(t, 1, lifetime)); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain request: status %d, want 200", resp.StatusCode)
	}
	f.drainGate().BeginDrain()
	resp := postRaw(t, front.URL, [32]byte{35}, testTBS(t, 2, lifetime))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining request: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}

	// Reads stay served so the restart can be watched from outside.
	hresp, err := http.Get(front.URL + "/ctfront/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("health during drain: status %d, want 200", hresp.StatusCode)
	}
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), "ctfront_draining 1") {
		t.Fatal("metrics do not report the drain state")
	}
	if !strings.Contains(string(metrics), `ctfront_shed_total{reason="drain"} 1`) {
		t.Fatalf("metrics do not count the drained refusal:\n%s", metrics)
	}
}

func TestFrontendHTTPMetricsRendering(t *testing.T) {
	clock := newTestClock()
	specs := newLocalPool(t, clock, 3, 0)
	f, err := New(Config{Backends: specs, Seed: 30, Clock: clock.Now, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	if resp := postRaw(t, front.URL, [32]byte{36}, testTBS(t, 1, 90*24*time.Hour)); resp.StatusCode != http.StatusOK {
		t.Fatalf("submission: status %d, want 200", resp.StatusCode)
	}
	f.CommitWeights()
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`ctfront_backend_successes_total{backend="log-0"} 1`,
		`ctfront_backend_verified{backend="log-0"} 1`,
		"ctfront_admitted_total 1",
		"ctfront_inflight 0",
		"ctfront_weight_commits_total 1",
		"# TYPE ctfront_shed_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestAdmissionClientMapCap(t *testing.T) {
	// maxClientBuckets hosts each spend their one token, so no bucket is
	// idle. One more host must be shed 429 + Retry-After instead of
	// growing the map; once the old buckets refill, a newcomer gets one.
	clock := newTestClock()
	f, err := New(Config{
		Backends:    newLocalPool(t, clock, 2, 0),
		Seed:        30,
		Clock:       clock.Now,
		ClientRate:  1,
		ClientBurst: 1,
		RetryAfter:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := f.admission
	for i := range maxClientBuckets {
		v, release := a.admit(fmt.Sprintf("10.0.%d.%d", i>>8, i&0xff))
		if v != admitOK {
			t.Fatalf("host %d of %d: verdict %d, want admitted", i, maxClientBuckets, v)
		}
		release()
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/ctfront/v1/add-pre-chain", strings.NewReader(`{"chain":[]}`))
	req.RemoteAddr = "10.1.0.0:4242"
	f.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("host past the cap: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if n := len(a.clients); n != maxClientBuckets {
		t.Fatalf("client map holds %d buckets, want the cap %d", n, maxClientBuckets)
	}
	if s := f.AdmissionStats(); s.ShedClientRate != 1 || s.Admitted != maxClientBuckets {
		t.Fatalf("stats = %+v, want 1 client shed and %d admitted", s, maxClientBuckets)
	}

	clock.Advance(time.Second)
	if v, release := a.admit("10.1.0.1"); v != admitOK {
		t.Fatalf("newcomer after the buckets refilled: verdict %d, want admitted", v)
	} else {
		release()
	}
	if n := len(a.clients); n > maxClientBuckets {
		t.Fatalf("client map holds %d buckets, over the cap %d", n, maxClientBuckets)
	}
}

// TestAdmissionInsertedBucketLowersIdleAt pins the scan-skipping rule of
// a full client map: a new host is shed without a scan only while no
// bucket can have refilled. With burst 4, 4095 hosts spend all four
// tokens at t0 (full again at t0+4s) and one spends one (full at
// t0+1s). At t0+1s a newcomer's scan evicts that one and admits it; its
// bucket is full again at t0+2s, earlier than any the scan kept, so at
// t0+2.5s the next newcomer must find it evictable and be admitted, not
// shed until t0+4s. A host at t0+1.5s, before either refill, is shed.
func TestAdmissionInsertedBucketLowersIdleAt(t *testing.T) {
	clock := newTestClock()
	a := newAdmission(&Config{Clock: clock.Now, ClientRate: 1, ClientBurst: 4})
	admit := func(host string, want verdict) {
		t.Helper()
		v, release := a.admit(host)
		if v != want {
			t.Fatalf("%s at +%v: verdict %d, want %d", host, clock.Now().Sub(newTestClock().Now()), v, want)
		}
		if release != nil {
			release()
		}
	}
	for i := range maxClientBuckets - 1 {
		for range 4 {
			admit(fmt.Sprintf("10.0.%d.%d", i>>8, i&0xff), admitOK)
		}
	}
	admit("10.2.0.0", admitOK)
	clock.Advance(time.Second)
	admit("10.3.0.0", admitOK)
	clock.Advance(time.Second / 2)
	admit("10.3.0.1", shedClientRate)
	clock.Advance(time.Second)
	admit("10.3.0.2", admitOK)
	if n := len(a.clients); n != maxClientBuckets {
		t.Fatalf("client map holds %d buckets, want the cap %d", n, maxClientBuckets)
	}
}

// BenchmarkAdmissionShedFullMap times one new host's admission while the
// client map is full of active buckets (each spent its one token at the
// same instant), the flood-of-new-hosts case: every admit is a shed.
func BenchmarkAdmissionShedFullMap(b *testing.B) {
	clock := newTestClock()
	a := newAdmission(&Config{Clock: clock.Now, ClientRate: 1, ClientBurst: 1})
	for i := range maxClientBuckets {
		if v, release := a.admit(fmt.Sprintf("10.0.%d.%d", i>>8, i&0xff)); v != admitOK {
			b.Fatalf("host %d: verdict %d, want admitted", i, v)
		} else {
			release()
		}
	}
	hosts := make([]string, 1<<16)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("10.1.%d.%d", i>>8, i&0xff)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := a.admit(hosts[i%len(hosts)]); v != shedClientRate {
			b.Fatalf("new host at a full map: verdict %d, want shed", v)
		}
	}
}
