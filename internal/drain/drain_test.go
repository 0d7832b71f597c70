package drain

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestGatePassesBeforeDrain proves the gate is transparent until
// BeginDrain: gated and ungated requests both reach the handler.
func TestGatePassesBeforeDrain(t *testing.T) {
	var served int
	g := NewGate(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		served++
	}), time.Second)
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(method, "/x", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s before drain: status %d", method, rec.Code)
		}
	}
	if served != 2 {
		t.Fatalf("handler saw %d requests, want 2", served)
	}
}

// TestGateRefusesMutationsDuringDrain proves a draining gate answers
// gated requests with 503 + Retry-After while reads pass through.
func TestGateRefusesMutationsDuringDrain(t *testing.T) {
	g := NewGate(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}), 3*time.Second)
	g.BeginDrain()

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/submit", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if g.Refused() != 1 {
		t.Fatalf("Refused = %d, want 1", g.Refused())
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET during drain: status %d, want 200", rec.Code)
	}
}

// TestGateWaitsForInflight proves Wait blocks until requests admitted
// before the drain complete, and that they complete successfully.
func TestGateWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	g := NewGate(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}), time.Second)

	rec := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/submit", nil))
	}()
	<-entered
	g.BeginDrain()
	if g.Inflight() != 1 {
		t.Fatalf("Inflight = %d, want 1", g.Inflight())
	}

	// Wait must not return while the request is still executing.
	shortCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Wait(shortCtx); err == nil {
		t.Fatal("Wait returned before the in-flight request finished")
	}

	close(release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := g.Wait(ctx); err != nil {
		t.Fatalf("Wait after release: %v", err)
	}
	wg.Wait()
	if rec.Code != http.StatusOK || rec.Body.String() != "done" {
		t.Fatalf("in-flight request got %d %q, want 200 \"done\"", rec.Code, rec.Body.String())
	}
}

// TestGateWaitIdleReturnsImmediately proves Wait with nothing in flight
// is a no-op, and BeginDrain is idempotent.
func TestGateWaitIdleReturnsImmediately(t *testing.T) {
	g := NewGate(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}), time.Second)
	g.BeginDrain()
	g.BeginDrain()
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait on idle gate: %v", err)
	}
	if !g.Draining() {
		t.Fatal("Draining = false after BeginDrain")
	}
}

// TestBucket walks token buckets through scripted clock readings: the
// burst default, refill on forward steps only, and Full.
func TestBucket(t *testing.T) {
	type step struct {
		op   string  // "take" or "full"
		at   float64 // seconds after t0
		want bool    // result of take / full
	}
	cases := []struct {
		name        string
		rate, burst float64
		steps       []step
	}{
		{"default burst, rate 0.5 holds one token", 0.5, 0, []step{
			{"take", 0, true}, {"take", 0, false},
			{"take", 1, false}, {"take", 2, true},
			{"full", 100, true}, {"take", 100, true}, {"take", 100, false},
		}},
		{"default burst, rate 3 holds three", 3, 0, []step{
			{"take", 0, true}, {"take", 0, true}, {"take", 0, true}, {"take", 0, false},
			{"take", 100, true}, {"take", 100, true}, {"take", 100, true}, {"take", 100, false},
		}},
		{"backward step neither refills nor moves the anchor", 1, 1, []step{
			{"take", 10, true}, {"take", 5, false},
			{"take", 10.5, false}, {"take", 11, true},
		}},
		{"full before and after refill", 2, 2, []step{
			{"full", 0, true}, {"take", 0, true}, {"full", 0, false},
			{"full", 0.25, false}, {"full", 0.5, true},
		}},
	}
	t0 := time.Date(2018, 3, 8, 0, 0, 0, 0, time.UTC)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBucket(c.rate, c.burst)
			for i, s := range c.steps {
				now := t0.Add(time.Duration(s.at * float64(time.Second)))
				var got bool
				switch s.op {
				case "take":
					got = b.Take(now)
				case "full":
					got = b.Full(now)
				}
				if got != s.want {
					t.Fatalf("step %d: %s at %vs = %v, want %v", i, s.op, s.at, got, s.want)
				}
			}
		})
	}
}

// TestBucketFullAt holds FullAt to Full: after takes at t0 (and at a
// later instant, so the anchor moves), the bucket is Full at FullAt and
// not a nanosecond before, for whole and fractional rates and bursts;
// a bucket that has refilled reports its anchor.
func TestBucketFullAt(t *testing.T) {
	t0 := time.Date(2018, 3, 8, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		rate, burst float64
		takes       int
	}{
		{1, 1, 1}, {0.5, 1, 1}, {3, 2, 2}, {1000, 7, 5}, {0.3, 3, 3}, {1, 4, 1},
	} {
		b := NewBucket(c.rate, c.burst)
		for i := 0; i < c.takes; i++ {
			if !b.Take(t0) {
				t.Fatalf("rate %v burst %v: take %d at t0 refused", c.rate, c.burst, i)
			}
		}
		b.Take(t0.Add(time.Millisecond))
		at := b.FullAt()
		if early := *b; early.Full(at.Add(-time.Nanosecond)) {
			t.Errorf("rate %v burst %v: Full a nanosecond before FullAt %v", c.rate, c.burst, at.Sub(t0))
		}
		if on := *b; !on.Full(at) {
			t.Errorf("rate %v burst %v: not Full at FullAt %v", c.rate, c.burst, at.Sub(t0))
		}
		later := at.Add(time.Hour)
		b.Full(later)
		if got := b.FullAt(); !got.Equal(later) {
			t.Errorf("rate %v burst %v: refilled bucket FullAt %v, want its anchor %v", c.rate, c.burst, got, later)
		}
	}
}

// TestRefuseRetryAfter pins Refuse's header: whole seconds, rounded up,
// never below 1.
func TestRefuseRetryAfter(t *testing.T) {
	for _, c := range []struct {
		hint time.Duration
		want string
	}{
		{0, "1"},
		{time.Nanosecond, "1"},
		{time.Second, "1"},
		{2500 * time.Millisecond, "3"},
	} {
		rec := httptest.NewRecorder()
		Refuse(rec, http.StatusTooManyRequests, "slow down", c.hint)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("hint %v: status %d, want 429", c.hint, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Fatalf("hint %v: Retry-After = %q, want %q", c.hint, got, c.want)
		}
	}
}

// TestGateShutdown drives Shutdown against a live server: a submission
// in flight when it starts completes with 200, one arriving during the
// drain gets 503, and Shutdown returns nil once the server is down.
func TestGateShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	g := NewGate(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}), time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: g}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String() + "/submit"

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "text/plain", nil)
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered
	shut := make(chan error, 1)
	go func() { shut <- g.Shutdown(srv, 5*time.Second) }()
	for !g.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(url, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: status %d, want 503", resp.StatusCode)
	}
	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight POST: status %d, want 200", code)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
