package ecosystem

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctrise/internal/auditor"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
)

// TestAuditorFollowsEcosystemClean runs the always-on auditor against
// every log of a replayed ecosystem: all 15 logs served over real HTTP,
// audited after each simulated day. Honest logs under organic growth —
// uneven rates, idle days, logs that never receive a cert — must
// produce zero alerts, and the auditor's verified frontier must land on
// each log's final published head.
func TestAuditorFollowsEcosystemClean(t *testing.T) {
	w, err := New(Config{
		Seed:          11,
		Scale:         1e-4,
		TimelineStart: Date(2018, 3, 1),
		TimelineEnd:   Date(2018, 3, 15),
		NumDomains:    500,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var alerts []auditor.Alert
	streamed := make(map[string]uint64)
	cfg := auditor.Config{
		SpotCheckEvery: 4,
		RetryBase:      time.Millisecond,
		Clock:          w.Clock.Now,
		OnAlert: func(al auditor.Alert) {
			mu.Lock()
			alerts = append(alerts, al)
			mu.Unlock()
		},
		OnEntry: func(log string, _ *ctlog.Entry) {
			mu.Lock()
			streamed[log]++
			mu.Unlock()
		},
	}
	for _, name := range w.LogNames {
		l := w.Logs[name]
		srv := httptest.NewServer(l.Handler())
		defer srv.Close()
		cfg.Logs = append(cfg.Logs, auditor.LogConfig{
			Name:   name,
			Client: ctclient.New(srv.URL, l.Verifier()),
			MMD:    24 * time.Hour,
		})
	}
	a, err := auditor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx := context.Background()
	if err := w.RunTimeline(func(time.Time) {
		if err := a.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}

	if len(alerts) != 0 {
		t.Fatalf("honest ecosystem raised alerts: %v", alerts)
	}
	var total uint64
	for _, name := range w.LogNames {
		want := w.Logs[name].TreeSize()
		sth, ok := a.VerifiedSTH(name)
		if want == 0 {
			// A log that never published past empty has nothing to verify.
			continue
		}
		if !ok || sth.TreeHead.TreeSize != want {
			t.Errorf("%s: verified size %d (ok=%v), log is at %d", name, sth.TreeHead.TreeSize, ok, want)
		}
		if got := streamed[name]; got != want {
			t.Errorf("%s: streamed %d entries, log holds %d", name, got, want)
		}
		total += want
	}
	if total == 0 {
		t.Fatal("timeline produced no entries; the test audited nothing")
	}
	t.Logf("audited %d entries across %d logs, zero alerts", total, len(w.LogNames))
}
