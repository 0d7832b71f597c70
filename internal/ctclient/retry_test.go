package ctclient

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
)

// flakyHandler wraps a real log handler, failing the first failures
// requests to each path with the given status.
type flakyHandler struct {
	inner    http.Handler
	status   int
	failures int
	counts   map[string]*atomic.Int64
	total    atomic.Int64
}

func newFlakyHandler(inner http.Handler, status, failures int) *flakyHandler {
	return &flakyHandler{inner: inner, status: status, failures: failures, counts: map[string]*atomic.Int64{}}
}

func (h *flakyHandler) count(path string) *atomic.Int64 {
	// Registered before the server starts serving; the map itself is
	// only read concurrently.
	c, ok := h.counts[path]
	if !ok {
		c = &atomic.Int64{}
		h.counts[path] = c
	}
	return c
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.total.Add(1)
	c, ok := h.counts[r.URL.Path]
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	if n := c.Add(1); n <= int64(h.failures) {
		http.Error(w, "transient failure", h.status)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// newMonitoredLog builds a log with a few published entries.
func newMonitoredLog(t *testing.T, entries int) *ctlog.Log {
	t.Helper()
	l, err := ctlog.New(ctlog.Config{Name: "Flaky Log", Signer: sct.NewFastSigner("Flaky Log")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		if _, err := l.AddChain([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	return l
}

// fastRetryMonitor returns a monitor with a negligible backoff so the
// tests exercise the retry logic, not the wall clock.
func fastRetryMonitor(c *Client) *Monitor {
	m := NewMonitor(c)
	m.RetryBase = time.Microsecond
	return m
}

// TestMonitorRetriesTransient5xx: a monitor rides out transient 5xx
// answers by retrying.
func TestMonitorRetriesTransient5xx(t *testing.T) {
	l := newMonitoredLog(t, 10)
	flaky := newFlakyHandler(l.Handler(), http.StatusServiceUnavailable, 2)
	flaky.count("/ct/v1/get-sth")
	flaky.count("/ct/v1/get-entries")
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	var got int
	if err := m.Poll(context.Background(), func(*ctlog.Entry) error { got++; return nil }); err != nil {
		t.Fatalf("Poll should have ridden out 2 consecutive 503s per path: %v", err)
	}
	if got != 10 {
		t.Fatalf("delivered %d entries, want 10", got)
	}
	if n := flaky.count("/ct/v1/get-sth").Load(); n != 3 {
		t.Fatalf("get-sth hit %d times, want 3 (2 failures + 1 success)", n)
	}
}

// TestMonitorRetryGivesUpAfterMaxRetries: the retry is bounded; after
// MaxRetries retries the server's StatusError surfaces.
func TestMonitorRetryGivesUpAfterMaxRetries(t *testing.T) {
	l := newMonitoredLog(t, 4)
	// More failures than the budget allows: 1 attempt + 3 retries < 10.
	flaky := newFlakyHandler(l.Handler(), http.StatusInternalServerError, 10)
	flaky.count("/ct/v1/get-sth")
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	err := m.Poll(context.Background(), func(*ctlog.Entry) error { return nil })
	if !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("err = %v, want ErrHTTPStatus after retries exhausted", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want StatusError{500}", err)
	}
	if n := flaky.count("/ct/v1/get-sth").Load(); n != 4 {
		t.Fatalf("get-sth hit %d times, want 4 (1 attempt + MaxRetries=3)", n)
	}
}

func TestMonitorDoesNotRetryPermanentErrors(t *testing.T) {
	l := newMonitoredLog(t, 4)
	flaky := newFlakyHandler(l.Handler(), http.StatusNotFound, 100)
	flaky.count("/ct/v1/get-sth")
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	err := m.Poll(context.Background(), func(*ctlog.Entry) error { return nil })
	if !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("err = %v, want ErrHTTPStatus", err)
	}
	if n := flaky.count("/ct/v1/get-sth").Load(); n != 1 {
		t.Fatalf("a 404 was retried: get-sth hit %d times, want 1", n)
	}
}

func TestMonitorRetriesNetworkError(t *testing.T) {
	// A server that dies after the STH fetch: the first get-entries
	// gets a connection error. The monitor must classify it transient
	// and retry (against the still-dead server), then surface the error
	// with progress intact — and a later Poll against a revived server
	// at the same address is beyond httptest, so just check the retry
	// count via elapsed attempts on a third server that revives.
	l := newMonitoredLog(t, 6)
	flaky := newFlakyHandler(l.Handler(), http.StatusBadGateway, 1)
	flaky.count("/ct/v1/get-entries")
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	// 502 on the first get-entries only: StreamEntries must recover
	// mid-walk without gaps or duplicates.
	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	m.Batch = 2
	var indices []uint64
	next, err := m.StreamEntries(context.Background(), 0, 5, func(e *ctlog.Entry) error {
		indices = append(indices, e.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 6 || len(indices) != 6 {
		t.Fatalf("next=%d, %d entries delivered, want 6 and 6", next, len(indices))
	}
	for i, idx := range indices {
		if uint64(i) != idx {
			t.Fatalf("gap or duplicate at %d: got index %d", i, idx)
		}
	}

	// True transport-level error: nothing listening.
	dead := New("http://127.0.0.1:1", nil)
	dm := fastRetryMonitor(dead)
	dm.MaxRetries = 2
	if err := dm.Poll(context.Background(), func(*ctlog.Entry) error { return nil }); err == nil {
		t.Fatal("Poll against a dead address succeeded")
	} else if errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("connection error misclassified as HTTP status: %v", err)
	}
}

func TestMonitorRetriesTruncatedBody(t *testing.T) {
	// The server dies mid-response: a 200 header goes out, the JSON
	// body is cut off. That is a transient transport failure — the
	// monitor must retry it, not classify it as a malformed body.
	l := newMonitoredLog(t, 5)
	inner := l.Handler()
	var aborted atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-sth" && aborted.Add(1) <= 2 {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"tree_size": 5, "timesta`))
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	var got int
	if err := m.Poll(context.Background(), func(*ctlog.Entry) error { got++; return nil }); err != nil {
		t.Fatalf("Poll should have ridden out 2 truncated bodies: %v", err)
	}
	if got != 5 {
		t.Fatalf("delivered %d entries, want 5", got)
	}
	if n := aborted.Load(); n != 3 {
		t.Fatalf("get-sth hit %d times, want 3 (2 aborted + 1 clean)", n)
	}

	// Genuine garbage stays permanent: no retry.
	var bad atomic.Int64
	badSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bad.Add(1)
		w.Write([]byte(`{"tree_size": "not a number"}`))
	}))
	defer badSrv.Close()
	bm := fastRetryMonitor(New(badSrv.URL, nil))
	if err := bm.Poll(context.Background(), func(*ctlog.Entry) error { return nil }); !errors.Is(err, ErrBadBody) {
		t.Fatalf("err = %v, want ErrBadBody", err)
	}
	if n := bad.Load(); n != 1 {
		t.Fatalf("malformed JSON was retried: %d requests, want 1", n)
	}
}

func TestMonitorRetryRespectsContextCancellation(t *testing.T) {
	l := newMonitoredLog(t, 2)
	flaky := newFlakyHandler(l.Handler(), http.StatusServiceUnavailable, 1000)
	flaky.count("/ct/v1/get-sth")
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	m.RetryBase = time.Hour // the sleep must be interrupted, not served
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for flaky.count("/ct/v1/get-sth").Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- m.Poll(ctx, func(*ctlog.Entry) error { return nil })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Poll succeeded against an always-failing server")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("retry sleep ignored context cancellation")
	}
}

func TestStatusErrorCarriesRetryAfter(t *testing.T) {
	// A draining server's 503 + Retry-After must surface on the typed
	// error so callers (and the retry loop) can honor the server's own
	// schedule instead of guessing.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := New(srv.URL, nil)
	_, err := c.GetSTH(context.Background())
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", se.RetryAfter)
	}

	// Garbage and HTTP-date hints are ignored, not misparsed.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	_, err = New(bad.URL, nil).GetSTH(context.Background())
	if !errors.As(err, &se) || se.RetryAfter != 0 {
		t.Fatalf("err = %v, want StatusError with zero RetryAfter", err)
	}
}

func TestMonitorRetryHonorsRetryAfterHint(t *testing.T) {
	// The server fails once with Retry-After: 1 while the monitor's own
	// backoff base is microseconds. The retry must wait at least the
	// hinted second — the draining server knows its restart schedule
	// better than the client's doubling does.
	l := newMonitoredLog(t, 3)
	inner := l.Handler()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-sth" && hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	startAt := time.Now()
	if err := m.Poll(context.Background(), func(*ctlog.Entry) error { return nil }); err != nil {
		t.Fatalf("Poll should have ridden out the draining 503: %v", err)
	}
	if elapsed := time.Since(startAt); elapsed < time.Second {
		t.Fatalf("retry waited only %v; the Retry-After: 1 hint was ignored", elapsed)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("get-sth hit %d times, want 2", n)
	}
}

// A 429 must stay recognizable as ctlog.ErrOverloaded (callers model
// overload on it) while now also carrying the log's derived Retry-After
// hint through the wrapped StatusError — the sequencer interval, not the
// old hardcoded 1s.
func TestAddChainOverloadCarriesDerivedRetryAfter(t *testing.T) {
	l, err := ctlog.New(ctlog.Config{
		Name:              "Overloaded Log",
		Signer:            sct.NewFastSigner("Overloaded Log"),
		CapacityPerSecond: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Configure the sequencer interval the hint derives from; the
	// canceled context stores it and exits without ticking.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.RunSequencer(ctx, 3*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	c := New(srv.URL, l.Verifier())
	if _, err := c.AddChain(context.Background(), []byte("fits the bucket")); err != nil {
		t.Fatal(err)
	}
	_, err = c.AddChain(context.Background(), []byte("over capacity"))
	if !errors.Is(err, ctlog.ErrOverloaded) {
		t.Fatalf("AddChain returned %v, want ErrOverloaded", err)
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("AddChain returned %v, want a wrapped StatusError", err)
	}
	if se.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s (derived from the sequencer interval)", se.RetryAfter)
	}
}

// A monitor whose server starts failing mid-stream returns the first
// index it did not deliver, and a fresh monitor seeded there with
// NewMonitorAt finishes the walk: every index delivered once, in order,
// and no index served twice. The auditor resumes ctmon's crawl from its
// chain cursor on exactly this contract. The server clamps pages to 4
// entries while the client asks for 7, so the first undelivered index
// (8) is not the start of a client page (7).
func TestMonitorStreamEntriesResumesAfterServerFailure(t *testing.T) {
	l, err := ctlog.New(ctlog.Config{
		Name:          "Resume Log",
		Signer:        sct.NewFastSigner("Resume Log"),
		MaxGetEntries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const entries = 40
	for i := 0; i < entries; i++ {
		if _, err := l.AddChain([]byte{byte(i), 0x55, byte(i >> 4)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}

	// served counts how often the server handed out each index.
	var mu sync.Mutex
	served := make([]int, entries)
	var requests atomic.Int64
	var failing atomic.Bool
	handler := l.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && requests.Add(1) > 2 {
			http.Error(w, "server killed", http.StatusInternalServerError)
			return
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		if r.URL.Path == "/ct/v1/get-entries" && rec.Code == http.StatusOK {
			var body struct{ Entries []json.RawMessage }
			start, err := strconv.Atoi(r.URL.Query().Get("start"))
			if err != nil || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
				t.Errorf("undecodable get-entries exchange: %s", r.URL)
			} else {
				mu.Lock()
				for i := range body.Entries {
					served[start+i]++
				}
				mu.Unlock()
			}
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()

	var seen []uint64
	collect := func(e *ctlog.Entry) error {
		seen = append(seen, e.Index)
		return nil
	}

	// The server dies after two pages; the monitor's retries run out.
	failing.Store(true)
	m := fastRetryMonitor(New(srv.URL, l.Verifier()))
	m.Batch = 7
	resume, err := m.StreamEntries(context.Background(), 0, entries-1, collect)
	if err == nil {
		t.Fatal("stream against a dying server succeeded")
	}
	if resume != uint64(len(seen)) {
		t.Fatalf("resume index %d, delivered %d entries", resume, len(seen))
	}
	if resume == 0 || resume >= entries {
		t.Fatalf("want a mid-stream failure, got resume=%d", resume)
	}

	// The server recovers; a fresh monitor resumes at the returned index.
	failing.Store(false)
	m2 := NewMonitorAt(New(srv.URL, l.Verifier()), resume)
	m2.Batch = 7
	if got := m2.NextIndex(); got != resume {
		t.Fatalf("NextIndex=%d, want %d", got, resume)
	}
	next, err := m2.StreamEntries(context.Background(), m2.NextIndex(), entries-1, collect)
	if err != nil {
		t.Fatal(err)
	}
	if next != entries {
		t.Fatalf("final cursor %d, want %d", next, entries)
	}
	if len(seen) != entries {
		t.Fatalf("delivered %d entries, want %d (gap or repeat)", len(seen), entries)
	}
	for i, idx := range seen {
		if idx != uint64(i) {
			t.Fatalf("delivery %d has index %d: not gap-free", i, idx)
		}
	}
	for i, n := range served {
		if n != 1 {
			t.Fatalf("index %d served %d times, want once", i, n)
		}
	}
}
