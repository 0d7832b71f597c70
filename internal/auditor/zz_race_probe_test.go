package auditor_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctrise/internal/auditor"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
)

// TestConcurrentMetricsScrapeRaceProbe scrapes /metrics and gossips the
// auditor's heads in a loop while it polls a growing log. Both read the
// monitor's cursor and head (ctclient.Monitor.NextIndex, LastSTH) while
// Poll advances them, so under -race it fails unless the monitor orders
// those reads with its own writes. One run can miss the interleaving;
// CI runs it 50 times under -race.
func TestConcurrentMetricsScrapeRaceProbe(t *testing.T) {
	signer := sct.NewFastSigner("racelog")
	lg, err := ctlog.New(ctlog.Config{Name: "racelog", Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := lg.AddChain([]byte(fmt.Sprintf("cert-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lg.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(lg.Handler())
	defer srv.Close()

	a, err := auditor.New(auditor.Config{Logs: []auditor.LogConfig{{
		Name:   "racelog",
		Client: ctclient.New(srv.URL, sct.NewFastVerifier("racelog")),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	msrv := httptest.NewServer(a.MetricsHandler())
	defer msrv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.GossipSTHs()
			resp, err := msrv.Client().Get(msrv.URL + "/metrics")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := lg.AddChain([]byte(fmt.Sprintf("more-%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := lg.PublishSTH(); err != nil {
			t.Fatal(err)
		}
		if err := a.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
