package auditor_test

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ctrise/internal/auditor"
	"ctrise/internal/chaos"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/sct"
)

// Restart semantics, both halves: a durable log killed mid-sequencing
// and recovered from its WAL must audit clean, and an auditor restarted
// from its persisted STH chain must resume — no re-alerting, no
// re-streaming — while still catching cross-restart misbehavior.

// TestAuditorRestartResumesFromChain: the persisted verified-STH chain
// is the auditor's durable frontier.
func TestAuditorRestartResumesFromChain(t *testing.T) {
	w := newChaosWorld(t, 3)
	stateDir := t.TempDir()

	a1 := w.NewAuditor(stateDir, nil)
	pollClean(t, a1)
	w.Grow(2)
	pollClean(t, a1)
	if got := a1.EntriesSeen(logName); got != 5 {
		t.Fatalf("first life consumed %d entries, want 5", got)
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same state dir. The verified head must be available
	// before any network traffic, and the first poll must neither
	// re-stream audited entries nor re-alert.
	var streamed []uint64
	var mu sync.Mutex
	client := ctclient.New(w.srv.URL, sct.NewFastVerifier(logName))
	a2, err := newTestAuditor(auditor.Config{
		Logs:           []auditor.LogConfig{{Name: logName, Client: client, MMD: time.Hour}},
		StateDir:       stateDir,
		SpotCheckEvery: 1,
		RetryBase:      time.Millisecond,
		Clock:          w.Now,
		OnEntry: func(_ string, e *ctlog.Entry) {
			mu.Lock()
			streamed = append(streamed, e.Index)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	sth, ok := a2.VerifiedSTH(logName)
	if !ok || sth.TreeHead.TreeSize != 5 {
		t.Fatalf("restarted auditor's verified head = %v (ok=%v), want size 5 before any poll", sth.TreeHead, ok)
	}
	pollClean(t, a2)
	if len(streamed) != 0 {
		t.Fatalf("restarted auditor re-streamed already-audited entries: %v", streamed)
	}

	// New growth streams from the persisted cursor, gap-free.
	w.Grow(2)
	pollClean(t, a2)
	mu.Lock()
	got := append([]uint64(nil), streamed...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("post-restart growth streamed %v, want [5 6]", got)
	}

	// Cross-restart detection: the log rolls back to a head older than
	// anything this process has seen — only the persisted chain knows.
	w.chaos.SetFault(chaos.FaultRollback)
	pollFaulty(t, a2)
	alerts := a2.Alerts()
	if len(alerts) != 1 || alerts[0].Class != auditor.AlertRollback {
		t.Fatalf("cross-restart rollback: alerts = %v, want one rollback", alerts)
	}
}

// TestAuditorRestartAnchorsOnPersistedHead: an equivocating log that
// waits for the auditor to restart still gets caught — the restarted
// auditor anchors on its durable chain head, not on whatever the log
// serves first.
func TestAuditorRestartAnchorsOnPersistedHead(t *testing.T) {
	w := newChaosWorld(t, 3)
	stateDir := t.TempDir()
	a1 := w.NewAuditor(stateDir, nil)
	pollClean(t, a1)
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// The log turns only after the auditor is gone.
	w.chaos.SetFault(chaos.FaultEquivocate)
	a2 := w.NewAuditor(stateDir, nil)
	pollFaulty(t, a2)
	alerts := a2.Alerts()
	if len(alerts) != 1 || alerts[0].Class != auditor.AlertEquivocation {
		t.Fatalf("equivocation across restart: alerts = %v, want one equivocation", alerts)
	}
}

// TestDurableLogKilledMidSequencingAuditsClean: an honest durable log,
// killed without any shutdown while submissions and sequencing race,
// recovers from its WAL to a state the auditor's persisted chain links
// to cleanly — zero alerts across the log's crash AND an auditor
// restart.
func TestDurableLogKilledMidSequencingAuditsClean(t *testing.T) {
	logDir := t.TempDir()
	stateDir := t.TempDir()
	var mu sync.Mutex
	now := time.Date(2018, 4, 12, 14, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	cfg := ctlog.Config{Name: logName, Signer: sct.NewFastSigner(logName), Clock: clock}
	l, err := ctlog.Open(logDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	client := ctclient.New(srv.URL, sct.NewFastVerifier(logName))
	newAuditor := func() *testAuditor {
		a, err := newTestAuditor(auditor.Config{
			Logs:           []auditor.LogConfig{{Name: logName, Client: client, MMD: time.Hour}},
			StateDir:       stateDir,
			SpotCheckEvery: 1,
			RetryBase:      time.Millisecond,
			Clock:          clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := newAuditor()

	// Submissions racing a continuous sequencer, audited live.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := l.PublishSTH(); err != nil {
					t.Error(err)
					return
				}
				advance(time.Second)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("durable-cert-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			pollClean(t, a)
		}
	}
	close(done)
	wg.Wait()
	pollClean(t, a)

	// Kill: abandon the log with no Close (no final snapshot, no
	// graceful anything) and restart from a byte-for-byte copy of the
	// directory — the abandoned instance still holds the flock a real
	// kill would have released.
	srv.Close()
	logDir2 := t.TempDir()
	for _, name := range []string{storage.WALName, storage.SnapshotName} {
		data, err := os.ReadFile(filepath.Join(logDir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir2, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, err := ctlog.Open(logDir2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	srv2 := httptest.NewServer(l2.Handler())
	defer srv2.Close()
	client.BaseURL = srv2.URL

	// The same auditor instance audits the recovered log clean: every
	// head the log ever served was fsynced before becoming visible, so
	// recovery can never be behind what the auditor verified.
	pollClean(t, a)

	// And new growth on the recovered log still audits clean.
	if _, err := l2.AddChain([]byte("post-recovery-cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	pollClean(t, a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the auditor too: resumed from its chain, against the
	// recovered log — still clean, nothing re-verified.
	a2 := newAuditor()
	defer a2.Close()
	if _, ok := a2.VerifiedSTH(logName); !ok {
		t.Fatal("restarted auditor lost its verified head")
	}
	before := a2.EntriesSeen(logName)
	pollClean(t, a2)
	if got := a2.EntriesSeen(logName); got != before {
		t.Fatalf("restarted auditor re-streamed %d entries after clean recovery", got-before)
	}
	if alerts := a2.Alerts(); len(alerts) != 0 {
		t.Fatalf("honest crash-recovered log produced alerts: %v", alerts)
	}
}

// TestChainSurvivesTornTail: a crash mid-append to the chain file loses
// at most the torn record; reopening truncates it and the auditor
// resumes from the last intact head.
func TestChainSurvivesTornTail(t *testing.T) {
	w := newChaosWorld(t, 3)
	stateDir := t.TempDir()
	a1 := w.NewAuditor(stateDir, nil)
	pollClean(t, a1)
	w.Grow(2)
	pollClean(t, a1)
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the chain file mid-record.
	var chainPath string
	matches, err := filepath.Glob(filepath.Join(stateDir, "*.audit"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one chain file, got %v (%v)", matches, err)
	}
	chainPath = matches[0]
	data, err := os.ReadFile(chainPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chainPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	a2 := w.NewAuditor(stateDir, nil)
	sth, ok := a2.VerifiedSTH(logName)
	if !ok {
		t.Fatal("torn tail destroyed the whole chain")
	}
	// The intact prefix holds the size-3 or size-5 head (depending on
	// where the tear landed); either way the next poll must verify the
	// transition to the live head cleanly.
	if sth.TreeHead.TreeSize != 3 && sth.TreeHead.TreeSize != 5 {
		t.Fatalf("recovered head size %d, want 3 or 5", sth.TreeHead.TreeSize)
	}
	pollClean(t, a2)
	if got, _ := a2.VerifiedSTH(logName); got.TreeHead.TreeSize != 5 {
		t.Fatalf("post-recovery poll verified size %d, want 5", got.TreeHead.TreeSize)
	}
}

// TestAuditorStateDirSingleWriter: one auditor per state dir. A second
// auditor on a dir a live one holds is refused with storage.ErrLocked —
// two writers appending to one chain file overwrite each other's
// records — and the dir opens again once the holder has closed.
func TestAuditorStateDirSingleWriter(t *testing.T) {
	w := newChaosWorld(t, 3)
	stateDir := t.TempDir()
	a1 := w.NewAuditor(stateDir, nil)
	pollClean(t, a1)

	client := ctclient.New(w.srv.URL, sct.NewFastVerifier(logName))
	cfg := auditor.Config{
		Logs:     []auditor.LogConfig{{Name: logName, Client: client}},
		StateDir: stateDir,
		Clock:    w.Now,
	}
	if a2, err := auditor.New(cfg); !errors.Is(err, storage.ErrLocked) {
		if err == nil {
			a2.Close()
		}
		t.Fatalf("second auditor on a held state dir: err = %v, want storage.ErrLocked", err)
	}

	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}
	a3, err := auditor.New(cfg)
	if err != nil {
		t.Fatalf("reopening after Close: %v", err)
	}
	defer a3.Close()
	if sth, ok := a3.VerifiedSTH(logName); !ok || sth.TreeHead.TreeSize != 3 {
		t.Fatalf("reopened auditor's verified head = %v (ok=%v), want size 3", sth.TreeHead, ok)
	}
}

// TestAuditorRejectsChainNameCollision: two honest logs whose names map
// to one chain file ("Argon 2018" and "argon-2018" both become
// argon-2018.audit) are refused by name. Sharing the file, each
// restarted log would anchor on whichever head was appended last — an
// honest 9-entry log anchored on the other log's size-3 head is a false
// fork alert.
func TestAuditorRejectsChainNameCollision(t *testing.T) {
	serve := func(name string, entries int) auditor.LogConfig {
		signer := sct.NewFastSigner(name)
		l, err := ctlog.New(ctlog.Config{Name: name, Signer: signer})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			if _, err := l.AddChain([]byte(fmt.Sprintf("%s-cert-%d", name, i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(l.Handler())
		t.Cleanup(srv.Close)
		return auditor.LogConfig{Name: name, Client: ctclient.New(srv.URL, sct.NewFastVerifier(name))}
	}
	argonA, argonB := serve("Argon 2018", 3), serve("argon-2018", 9)
	stateDir := t.TempDir()

	a, err := auditor.New(auditor.Config{Logs: []auditor.LogConfig{argonA, argonB}, StateDir: stateDir})
	if err == nil {
		a.Close()
		t.Fatal("two logs sharing one chain file were accepted")
	}
	for _, name := range []string{"Argon 2018", "argon-2018"} {
		if !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Fatalf("collision error %q does not name log %q", err, name)
		}
	}

	// Each name alone keeps its own chain and audits clean across a
	// restart.
	for _, lc := range []auditor.LogConfig{argonA, argonB} {
		dir := t.TempDir()
		for life := 0; life < 2; life++ {
			a, err := newTestAuditor(auditor.Config{Logs: []auditor.LogConfig{lc}, StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			pollClean(t, a)
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
