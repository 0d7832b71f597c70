package ctlog

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"ctrise/internal/sct"
)

func newHTTPTestLog(t *testing.T, cfg Config) (*Log, *httptest.Server) {
	t.Helper()
	cfg.Name = "http test log"
	cfg.Signer = sct.NewFastSigner(cfg.Name)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.Handler())
	t.Cleanup(srv.Close)
	return l, srv
}

func get(t *testing.T, srv *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func post(t *testing.T, srv *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestHTTPAddChainErrorPaths(t *testing.T) {
	_, srv := newHTTPTestLog(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"not json", "/ct/v1/add-chain", "{"},
		{"empty chain", "/ct/v1/add-chain", `{"chain":[]}`},
		{"bad base64", "/ct/v1/add-chain", `{"chain":["!!!not-base64!!!"]}`},
		{"prechain missing key hash", "/ct/v1/add-pre-chain", `{"chain":["dGJz"]}`},
		{"prechain bad tbs base64", "/ct/v1/add-pre-chain", `{"chain":["!!!","AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="]}`},
		{"prechain short key hash", "/ct/v1/add-pre-chain", `{"chain":["dGJz","c2hvcnQ="]}`},
	}
	for _, tc := range cases {
		if resp := post(t, srv, tc.path, tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// A submission body is capped at what the largest loggable certificate
// needs: the largest one still goes through, anything longer is refused
// with 413 before it is buffered, on both submission endpoints.
func TestHTTPAddChainBodyLimit(t *testing.T) {
	l, _ := newHTTPTestLog(t, Config{})
	serve := func(path, body string) int {
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec.Code
	}
	// The longest legitimate body: a uint24-max TBS plus the key hash.
	largest := base64.StdEncoding.EncodeToString(make([]byte, 1<<24-1))
	ikh := base64.StdEncoding.EncodeToString(make([]byte, 32))
	if code := serve("/ct/v1/add-pre-chain", `{"chain":["`+largest+`","`+ikh+`"]}`); code != http.StatusOK {
		t.Errorf("largest loggable precertificate: status = %d, want 200", code)
	}
	oversize := `{"chain":["` + strings.Repeat("A", maxAddChainBody) + `"]}`
	for _, path := range []string{"/ct/v1/add-chain", "/ct/v1/add-pre-chain"} {
		if code := serve(path, oversize); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status = %d, want 413", path, len(oversize), code)
		}
	}
	if got := l.PendingCount(); got != 1 {
		t.Errorf("%d entries staged, want the one that fit", got)
	}
}

func TestHTTPGetEntriesErrorPaths(t *testing.T) {
	l, srv := newHTTPTestLog(t, Config{})
	if _, err := l.AddChain([]byte("one entry")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	for name, query := range map[string]string{
		"missing params":  "",
		"non-numeric":     "?start=x&end=y",
		"negative":        "?start=-1&end=2",
		"inverted range":  "?start=3&end=1",
		"start past size": "?start=10&end=20",
	} {
		resp := get(t, srv, "/ct/v1/get-entries"+query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestHTTPProofAndConsistencyErrorPaths pins the proof endpoints' error
// classes through HTTP: a malformed or out-of-range query is 400, an
// unknown hash 404.
func TestHTTPProofAndConsistencyErrorPaths(t *testing.T) {
	l, srv := newHTTPTestLog(t, Config{})
	for i := 0; i < 4; i++ {
		if _, err := l.AddChain([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	// Two more entries sequenced but NOT published: the proof surface
	// serves the published snapshot (head 4), so sizes 5 and 6 must be
	// rejected exactly like any other out-of-range size even though the
	// live tree covers them.
	for i := 4; i < 6; i++ {
		if _, err := l.AddChain([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Sequence(); err != nil {
		t.Fatal(err)
	}
	ents, err := l.GetEntries(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	leafB64 := func(i int) string {
		h, err := ents[i].LeafHash()
		if err != nil {
			t.Fatal(err)
		}
		return url.QueryEscape(base64.StdEncoding.EncodeToString(h[:]))
	}
	checks := []struct {
		name, path string
		want       int
	}{
		{"proof bad tree_size", "/ct/v1/get-proof-by-hash?hash=AAAA&tree_size=x", http.StatusBadRequest},
		{"proof bad base64 hash", "/ct/v1/get-proof-by-hash?hash=!!!&tree_size=4", http.StatusBadRequest},
		{"proof short hash", "/ct/v1/get-proof-by-hash?hash=c2hvcnQ=&tree_size=4", http.StatusBadRequest},
		{"proof unknown hash", "/ct/v1/get-proof-by-hash?hash=" +
			url.QueryEscape("q82RDxLKvBkbpdEvZ6pQ0FJ145U9PvyHcQRhnAuGYzo=") + "&tree_size=4", http.StatusNotFound},
		{"proof at published head", "/ct/v1/get-proof-by-hash?hash=" + leafB64(0) + "&tree_size=4", http.StatusOK},
		{"proof above published head", "/ct/v1/get-proof-by-hash?hash=" + leafB64(0) + "&tree_size=5", http.StatusBadRequest},
		{"proof at live tree size", "/ct/v1/get-proof-by-hash?hash=" + leafB64(0) + "&tree_size=6", http.StatusBadRequest},
		{"proof tree_size zero", "/ct/v1/get-proof-by-hash?hash=" + leafB64(0) + "&tree_size=0", http.StatusBadRequest},
		{"proof index past tree_size", "/ct/v1/get-proof-by-hash?hash=" + leafB64(3) + "&tree_size=3", http.StatusBadRequest},
		{"consistency bad params", "/ct/v1/get-sth-consistency?first=a&second=b", http.StatusBadRequest},
		{"consistency inverted", "/ct/v1/get-sth-consistency?first=4&second=2", http.StatusBadRequest},
		{"consistency first zero", "/ct/v1/get-sth-consistency?first=0&second=4", http.StatusBadRequest},
		{"consistency at published head", "/ct/v1/get-sth-consistency?first=2&second=4", http.StatusOK},
		{"consistency above published head", "/ct/v1/get-sth-consistency?first=2&second=5", http.StatusBadRequest},
		{"unknown endpoint", "/ct/v1/get-roots", http.StatusNotFound},
		{"wrong method", "/ct/v1/add-chain", http.StatusMethodNotAllowed},
	}
	for _, c := range checks {
		resp := get(t, srv, c.path)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// Oversized [start, end] ranges are clamped to the server's page limit:
// the response is a partial page starting at start, like real logs, and
// the client is expected to retry the remainder.
func TestHTTPGetEntriesClampsToPageLimit(t *testing.T) {
	l, srv := newHTTPTestLog(t, Config{MaxGetEntries: 4})
	const total = 11
	for i := 0; i < total; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("page-cert-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	start := 0
	for start < total {
		resp, err := http.Get(srv.URL + fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, total+50))
		if err != nil {
			t.Fatal(err)
		}
		var body GetEntriesResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Entries) == 0 {
			t.Fatalf("empty page at %d", start)
		}
		sizes = append(sizes, len(body.Entries))
		start += len(body.Entries)
	}
	// 11 entries at page limit 4: pages of 4, 4, 3.
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 3 {
		t.Fatalf("page sizes = %v, want [4 4 3]", sizes)
	}
}

// The Retry-After hint on backpressure responses must be derived from
// the configured sequencer interval — "one sequencing cycle from now" is
// when refused capacity is most likely to exist again — not hardcoded.
func TestHTTPRetryAfterDerivedFromSequencerInterval(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		want     string
	}{
		{0, "1"},                      // no sequencer configured: floor
		{300 * time.Millisecond, "1"}, // sub-second rounds up to the floor
		{1500 * time.Millisecond, "2"},
		{3 * time.Second, "3"},
	} {
		l, srv := newHTTPTestLog(t, Config{CapacityPerSecond: 1})
		if tc.interval > 0 {
			// A canceled context makes RunSequencer store the hint, drain,
			// and exit immediately — the configured interval sticks.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := l.RunSequencer(ctx, tc.interval); !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
		}
		// Exhaust the capacity bucket: the second submission gets 429.
		if resp := post(t, srv, "/ct/v1/add-chain", `{"chain":["Zmlyc3Q="]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("interval %v: first add status = %d", tc.interval, resp.StatusCode)
		}
		resp := post(t, srv, "/ct/v1/add-chain", `{"chain":["c2Vjb25k"]}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("interval %v: second add status = %d, want 429", tc.interval, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.want {
			t.Errorf("interval %v: Retry-After = %q, want %q", tc.interval, got, tc.want)
		}
	}
}

// 503s carry the same derived hint: a persistence failure heals (if at
// all) on operator timescales, but the polite client backoff is still
// "come back next sequencing cycle" — failover to another log happens
// above this layer.
func TestHTTPRetryAfterOnPersistenceFailure(t *testing.T) {
	l, _ := newDurableLog(t, t.TempDir(), Config{})
	srv := httptest.NewServer(l.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.RunSequencer(ctx, 2*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	l.store.Close() // sticky failure: all further submissions get 503
	resp := post(t, srv, "/ct/v1/add-chain", `{"chain":["ZG9vbWVk"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
}
