package ctclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
)

type fixedReader struct{ rng *rand.Rand }

func (f *fixedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f.rng.Intn(256))
	}
	return len(p), nil
}

type env struct {
	log    *ctlog.Log
	server *httptest.Server
	client *Client
	now    time.Time
}

func newEnv(t *testing.T, cfg ctlog.Config) *env {
	t.Helper()
	e := &env{now: time.Date(2018, 4, 12, 14, 0, 0, 0, time.UTC)}
	signer, err := sct.NewSigner(&fixedReader{rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Signer = signer
	cfg.Clock = func() time.Time { return e.now }
	if cfg.Name == "" {
		cfg.Name = "itest log"
	}
	l, err := ctlog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.log = l
	e.server = httptest.NewServer(l.Handler())
	t.Cleanup(e.server.Close)
	e.client = New(e.server.URL, l.Verifier())
	return e
}

func TestAddChainOverHTTP(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	cert := []byte("der bytes over the wire")
	s, err := e.client.AddChain(context.Background(), cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.log.Verifier().VerifySCT(s, sct.X509Entry(cert)); err != nil {
		t.Fatalf("SCT from HTTP does not verify: %v", err)
	}
	if s.LogID != e.log.LogID() {
		t.Fatal("log ID mismatch")
	}
}

func TestAddPreChainOverHTTP(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	var ikh [32]byte
	ikh[5] = 0x55
	tbs := []byte("precert tbs")
	s, err := e.client.AddPreChain(context.Background(), tbs, ikh)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.log.Verifier().VerifySCT(s, sct.PrecertEntry(ikh, tbs)); err != nil {
		t.Fatalf("precert SCT does not verify: %v", err)
	}
}

func TestGetSTHVerifies(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	if _, err := e.client.AddChain(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.now = e.now.Add(time.Minute)
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	sth, err := e.client.GetSTH(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sth.TreeHead.TreeSize != 1 {
		t.Fatalf("size = %d", sth.TreeHead.TreeSize)
	}
}

func TestGetEntriesAndInclusion(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := e.client.AddChain(ctx, []byte(fmt.Sprintf("cert-%d", i))); err != nil {
			t.Fatal(err)
		}
		// Distinct timestamps, so the sequencer's canonical
		// (timestamp, identity-hash) order preserves submission order.
		e.now = e.now.Add(time.Second)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	sth, err := e.client.GetSTH(ctx)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := e.client.GetEntries(ctx, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("entries = %d", len(entries))
	}
	for _, entry := range entries {
		if err := e.client.VerifyInclusion(ctx, entry, sth); err != nil {
			t.Fatalf("inclusion for %d: %v", entry.Index, err)
		}
	}
	// SCT-over-entry verification: the log's signature covers the entry.
	if string(entries[3].Cert) != "cert-3" {
		t.Fatalf("entry 3 cert = %q", entries[3].Cert)
	}
}

func TestOverloadedSurfacesAsErrOverloaded(t *testing.T) {
	e := newEnv(t, ctlog.Config{CapacityPerSecond: 1})
	ctx := context.Background()
	if _, err := e.client.AddChain(ctx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.AddChain(ctx, []byte("b")); !errors.Is(err, ctlog.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

func TestMonitorFollowsLog(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	mon := NewMonitor(e.client)
	mon.Batch = 3

	var seen []string
	collect := func(entry *ctlog.Entry) error {
		seen = append(seen, string(entry.Cert))
		return nil
	}

	// Round 1: 5 entries, clock advancing so sequence order follows
	// submission order.
	for i := 0; i < 5; i++ {
		if _, err := e.client.AddChain(ctx, []byte(fmt.Sprintf("r1-%d", i))); err != nil {
			t.Fatal(err)
		}
		e.now = e.now.Add(time.Second)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Poll(ctx, collect); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 || seen[0] != "r1-0" || seen[4] != "r1-4" {
		t.Fatalf("seen = %v", seen)
	}

	// Round 2: 4 more; the monitor must verify consistency and resume.
	for i := 0; i < 4; i++ {
		if _, err := e.client.AddChain(ctx, []byte(fmt.Sprintf("r2-%d", i))); err != nil {
			t.Fatal(err)
		}
		e.now = e.now.Add(time.Second)
	}
	e.now = e.now.Add(time.Minute)
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Poll(ctx, collect); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 9 || seen[5] != "r2-0" {
		t.Fatalf("after round 2 seen = %v", seen)
	}
	if mon.EntriesSeen() != 9 {
		t.Fatalf("EntriesSeen = %d", mon.EntriesSeen())
	}

	// Idle poll: no new entries, no error.
	if err := mon.Poll(ctx, collect); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 9 {
		t.Fatalf("idle poll changed seen to %d", len(seen))
	}
}

func TestMonitorCallbackErrorPropagates(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	if _, err := e.client.AddChain(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(e.client)
	wantErr := errors.New("sink full")
	err := mon.Poll(ctx, func(*ctlog.Entry) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamDeliversUntilCancel(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := e.client.AddChain(ctx, []byte("s1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(e.client)
	got := make(chan string, 10)
	go func() {
		_ = mon.Stream(ctx, time.Millisecond, func(entry *ctlog.Entry) error {
			got <- string(entry.Cert)
			return nil
		})
	}()
	select {
	case s := <-got:
		if s != "s1" {
			t.Fatalf("streamed %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream delivered nothing")
	}
	// Add an entry while streaming.
	if _, err := e.client.AddChain(ctx, []byte("s2")); err != nil {
		t.Fatal(err)
	}
	e.now = e.now.Add(time.Second)
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "s2" {
			t.Fatalf("streamed %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream missed live entry")
	}
	cancel()
}

func TestGetConsistencyProofHTTP(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := e.client.AddChain(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	proof, err := e.client.GetConsistencyProof(ctx, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) == 0 {
		t.Fatal("empty proof for 2->4")
	}
	// Bad ranges surface as HTTP errors.
	if _, err := e.client.GetConsistencyProof(ctx, 4, 99); err == nil {
		t.Fatal("expected error for out-of-range consistency")
	}
}

func TestBadQueryParameters(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	if _, err := e.client.GetEntries(ctx, 5, 2); err == nil {
		t.Fatal("expected error for reversed range")
	}
	if _, _, err := e.client.GetProofByHash(ctx, [32]byte{1}, 0); err == nil {
		t.Fatal("expected error for zero tree size")
	}
}

// StreamEntries must walk an arbitrary [start, end] gap-free at any
// client/server page-size combination: the server clamps oversized
// requests to its own limit and returns partial pages, and the client
// resumes from the first undelivered index.
func TestMonitorStreamEntriesPagesGapFree(t *testing.T) {
	e := newEnv(t, ctlog.Config{MaxGetEntries: 4})
	ctx := context.Background()
	const total = 23
	for i := 0; i < total; i++ {
		if _, err := e.client.AddChain(ctx, []byte(fmt.Sprintf("gapfree-%02d", i))); err != nil {
			t.Fatal(err)
		}
		e.now = e.now.Add(time.Second)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	// Client batch sizes straddling the server's limit of 4: smaller,
	// equal, larger, and "whole range in one request" (0).
	for _, batch := range []uint64{1, 3, 4, 7, 100, 0} {
		mon := NewMonitor(e.client)
		mon.Batch = batch
		var indices []uint64
		next, err := mon.StreamEntries(ctx, 0, total-1, func(entry *ctlog.Entry) error {
			indices = append(indices, entry.Index)
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if next != total {
			t.Fatalf("batch %d: next = %d, want %d", batch, next, total)
		}
		if len(indices) != total {
			t.Fatalf("batch %d: delivered %d entries", batch, len(indices))
		}
		for i, idx := range indices {
			if idx != uint64(i) {
				t.Fatalf("batch %d: entry %d has index %d", batch, i, idx)
			}
		}
	}
}

// A canceled context stops the entry loop mid-page: remaining entries of
// an already-fetched batch are not delivered.
func TestMonitorPollStopsMidPageOnCancel(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := e.client.AddChain(ctx, []byte(fmt.Sprintf("cancel-%02d", i))); err != nil {
			t.Fatal(err)
		}
		e.now = e.now.Add(time.Second)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	// One big page: the whole log arrives in a single get-entries
	// response, and the callback cancels after the third entry.
	cctx, cancel := context.WithCancel(ctx)
	mon := NewMonitor(e.client)
	mon.Batch = 0
	var delivered int
	err := mon.Poll(cctx, func(*ctlog.Entry) error {
		delivered++
		if delivered == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered != 3 {
		t.Fatalf("delivered = %d entries after cancellation, want 3", delivered)
	}
	// A fresh Poll resumes exactly where the canceled one stopped.
	if err := mon.Poll(ctx, func(*ctlog.Entry) error { delivered++; return nil }); err != nil {
		t.Fatal(err)
	}
	if delivered != total || mon.EntriesSeen() != total {
		t.Fatalf("delivered = %d, seen = %d, want %d", delivered, mon.EntriesSeen(), total)
	}
}

// A server that returns more entries than the requested range must not
// push entries the caller did not ask for into the callback.
func TestMonitorStreamEntriesClampsOverGenerousServer(t *testing.T) {
	e := newEnv(t, ctlog.Config{})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := e.client.AddChain(ctx, []byte(fmt.Sprintf("over-%d", i))); err != nil {
			t.Fatal(err)
		}
		e.now = e.now.Add(time.Second)
	}
	if _, err := e.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	// A proxy that ignores the requested end and always serves the whole
	// log from start.
	generous := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-entries" {
			q := r.URL.Query()
			q.Set("end", "100")
			r.URL.RawQuery = q.Encode()
		}
		e.log.Handler().ServeHTTP(w, r)
	}))
	defer generous.Close()
	mon := NewMonitor(New(generous.URL, nil))
	var delivered int
	next, err := mon.StreamEntries(ctx, 0, 2, func(*ctlog.Entry) error {
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || next != 3 {
		t.Fatalf("delivered %d entries, next %d; want 3 and 3", delivered, next)
	}
}

// A tile-backed durable log clamps get-entries pages at sealed-tile
// boundaries, so even a generous MaxGetEntries yields short pages over
// HTTP. StreamEntries must absorb those short pages gap-free at any
// client batch size, and a monitor that stops mid-stream must resume at
// the returned index with no gaps or repeats even when the log itself
// restarts (close + reopen from tiles) underneath the same URL.
func TestMonitorStreamEntriesOverTiledLog(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2018, 4, 12, 14, 0, 0, 0, time.UTC)
	signer := sct.NewFastSigner("tiled-stream-log")
	open := func() *ctlog.Log {
		l, err := ctlog.Open(dir, ctlog.Config{
			Name:          "tiled stream log",
			Operator:      "TestOp",
			Signer:        signer,
			Clock:         func() time.Time { return now },
			TileSpan:      4,
			MaxGetEntries: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	defer func() { l.Close() }()

	ctx := context.Background()
	const total = 23 // 5 full span-4 tiles sealed + 3 resident tail entries
	for i := 0; i < total; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("tiled-%02d", i))); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	wantLeaves := make([][]byte, 0, total)
	err := l.StreamEntries(0, total-1, func(e *ctlog.Entry) error {
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			return err
		}
		wantLeaves = append(wantLeaves, leaf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The server swaps to the reopened log mid-test; the client's URL
	// stays fixed, as it would across a real log restart.
	var mu sync.Mutex
	handler := l.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := New(srv.URL, l.Verifier())

	// Server-side contract: a whole-log request starting in the sealed
	// region is clamped at the first tile boundary despite the generous
	// MaxGetEntries, and a mid-tile start clamps at the same boundary.
	page, err := client.GetEntries(ctx, 0, total-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 4 || page[0].Index != 0 {
		t.Fatalf("sealed-region page: %d entries from %d, want 4 from 0", len(page), page[0].Index)
	}
	page, err = client.GetEntries(ctx, 2, total-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Index != 2 {
		t.Fatalf("mid-tile page: %d entries from %d, want 2 from 2", len(page), page[0].Index)
	}

	// Client-side contract: gap-free walks over tile-clamped pages at
	// batch sizes below, straddling, and above the tile span.
	for _, batch := range []uint64{1, 3, 4, 7, 100, 0} {
		mon := NewMonitor(client)
		mon.Batch = batch
		var got [][]byte
		next, err := mon.StreamEntries(ctx, 0, total-1, func(e *ctlog.Entry) error {
			leaf, err := e.MerkleTreeLeaf()
			if err != nil {
				return err
			}
			if e.Index != uint64(len(got)) {
				return fmt.Errorf("entry %d delivered in position %d", e.Index, len(got))
			}
			got = append(got, leaf)
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if next != total || len(got) != total {
			t.Fatalf("batch %d: next %d, delivered %d, want %d", batch, next, len(got), total)
		}
		for i := range got {
			if !bytes.Equal(got[i], wantLeaves[i]) {
				t.Fatalf("batch %d: leaf %d differs from the log's own stream", batch, i)
			}
		}
	}

	// Mid-stream restart: deliver 9 entries, pause, restart the log from
	// its tiles, then resume from the returned index via NewMonitorAt.
	pause := errors.New("pause for restart")
	var got [][]byte
	mon := NewMonitor(client)
	mon.Batch = 7
	next, err := mon.StreamEntries(ctx, 0, total-1, func(e *ctlog.Entry) error {
		if len(got) == 9 {
			return pause
		}
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			return err
		}
		got = append(got, leaf)
		return nil
	})
	if !errors.Is(err, pause) {
		t.Fatalf("err = %v, want pause sentinel", err)
	}
	if next != 9 {
		t.Fatalf("next = %d after 9 delivered entries, want 9", next)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = open()
	mu.Lock()
	handler = l.Handler()
	mu.Unlock()

	resumed := NewMonitorAt(client, next)
	if err := resumed.Poll(ctx, func(e *ctlog.Entry) error {
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			return err
		}
		if e.Index != uint64(len(got)) {
			return fmt.Errorf("entry %d delivered in position %d after restart", e.Index, len(got))
		}
		got = append(got, leaf)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != total || resumed.EntriesSeen() != total-9 {
		t.Fatalf("delivered %d entries (%d after restart), want %d total", len(got), resumed.EntriesSeen(), total)
	}
	for i := range got {
		if !bytes.Equal(got[i], wantLeaves[i]) {
			t.Fatalf("leaf %d differs across the restart", i)
		}
	}
}
