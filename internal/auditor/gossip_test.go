package auditor_test

import (
	"context"
	"encoding/base64"
	"net/http/httptest"
	"testing"

	"ctrise/internal/auditor"
	"ctrise/internal/chaos"
)

// Gossip over real HTTP: GossipHandler → FetchGossip → CrossCheckPeer.

func TestGossipHTTPRoundTrip(t *testing.T) {
	w := newChaosWorld(t, 3)
	a := w.NewAuditor("", nil)
	b := w.NewAuditor("", nil)
	pollClean(t, a)
	pollClean(t, b)

	gsrv := httptest.NewServer(a.GossipHandler())
	defer gsrv.Close()

	sths, err := auditor.FetchGossip(context.Background(), nil, gsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(sths) != 1 || sths[0].Log != logName || sths[0].TreeSize != 3 {
		t.Fatalf("gossip payload = %+v, want one STH for %q at size 3", sths, logName)
	}

	// Two honest auditors cross-check without raising anything.
	if err := b.CrossCheckPeer(context.Background(), nil, gsrv.URL); err != nil {
		t.Fatal(err)
	}
	if alerts := b.Alerts(); len(alerts) != 0 {
		t.Fatalf("honest cross-check raised alerts: %v", alerts)
	}
}

// TestCrossCheckPeerDetectsSplitViewOverHTTP: a gossip cross-check over
// real HTTP detects a split view as one equivocation.
func TestCrossCheckPeerDetectsSplitViewOverHTTP(t *testing.T) {
	w := newChaosWorld(t, 3)
	w.chaos.SetFault(chaos.FaultSplitView)

	a := w.NewAuditor("", nil)
	b := w.NewAuditor("", chaos.ViewTransport(nil, chaos.ViewShadow))
	pollClean(t, a) // honest view
	pollClean(t, b) // shadow view — internally consistent, so clean

	gsrv := httptest.NewServer(b.GossipHandler())
	defer gsrv.Close()
	if err := a.CrossCheckPeer(context.Background(), nil, gsrv.URL); err != nil {
		t.Fatal(err)
	}
	alerts := a.Alerts()
	if len(alerts) != 1 || alerts[0].Class != auditor.AlertEquivocation {
		t.Fatalf("split view over gossip HTTP: alerts = %v, want one equivocation", alerts)
	}
}

// TestCrossCheckRejectsForgedPeerSTH: a gossip cross-check rejects peer
// evidence the log never signed.
func TestCrossCheckRejectsForgedPeerSTH(t *testing.T) {
	w := newChaosWorld(t, 3)
	a := w.NewAuditor("", nil)
	b := w.NewAuditor("", nil)
	pollClean(t, a)
	pollClean(t, b)

	// A malicious peer relays a head the log never signed: same size,
	// fabricated root, corrupted signature. This must surface as a peer
	// error, never as evidence against the log.
	forged := b.GossipSTHs()
	sig, err := base64.StdEncoding.DecodeString(forged[0].TreeHeadSignature)
	if err != nil {
		t.Fatal(err)
	}
	sig[len(sig)-1] ^= 0x01
	forged[0].TreeHeadSignature = base64.StdEncoding.EncodeToString(sig)

	if err := a.CrossCheck(context.Background(), forged); err == nil {
		t.Fatal("forged peer STH accepted without error")
	}
	if alerts := a.Alerts(); len(alerts) != 0 {
		t.Fatalf("forged peer STH produced alerts against the log: %v", alerts)
	}
}
