package ctlog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/sct"
)

// Sequencing must produce the identical tree regardless of the order in
// which submissions were staged: the canonical (timestamp, identity-hash)
// batch order makes the tree a function of the submission set.
func TestSequenceCanonicalOrder(t *testing.T) {
	certs := make([][]byte, 64)
	for i := range certs {
		certs[i] = []byte(fmt.Sprintf("canonical-cert-%02d", i))
	}

	build := func(order []int) [32]byte {
		l, _ := newTestLog(t, Config{})
		for _, i := range order {
			if _, err := l.AddChain(certs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if n, _ := l.Sequence(); n != len(certs) {
			t.Fatalf("sequenced %d, want %d", n, len(certs))
		}
		sth, err := l.PublishSTH()
		if err != nil {
			t.Fatal(err)
		}
		return sth.TreeHead.RootHash
	}

	forward := make([]int, len(certs))
	reverse := make([]int, len(certs))
	shuffled := make([]int, len(certs))
	for i := range certs {
		forward[i] = i
		reverse[i] = len(certs) - 1 - i
		shuffled[i] = (i * 37) % len(certs) // 37 coprime to 64: a permutation
	}
	want := build(forward)
	if got := build(reverse); got != want {
		t.Fatal("reverse staging order changed the tree root")
	}
	if got := build(shuffled); got != want {
		t.Fatal("shuffled staging order changed the tree root")
	}
}

// Entries staged across publishes sequence in timestamp order within
// each batch, and indices are assigned contiguously batch after batch.
func TestSequenceAssignsContiguousIndices(t *testing.T) {
	l, clk := newTestLog(t, Config{})
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 5; i++ {
			if _, err := l.AddChain([]byte(fmt.Sprintf("b%d-%d", batch, i))); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := l.GetEntries(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 15 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i, e := range entries {
		if e.Index != uint64(i) {
			t.Fatalf("entry %d has index %d", i, e.Index)
		}
		if i > 0 && e.Timestamp < entries[i-1].Timestamp {
			t.Fatalf("entry %d timestamp regresses (%d after %d)", i, e.Timestamp, entries[i-1].Timestamp)
		}
	}
}

// Concurrent submitters racing on overlapping certificate sets must
// dedupe exactly: one staged entry per distinct certificate, every
// duplicate answered with the original timestamp. Run under -race this
// also proves the lock-free hash/sign paths don't race the sequencer.
func TestStagedDedupeUnderConcurrency(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	const (
		workers = 8
		uniques = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	sequenced := make(chan struct{})
	// A sequencer races the submitters, draining partial batches.
	go func() {
		defer close(sequenced)
		for i := 0; i < 50; i++ {
			l.Sequence()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker submits the full set, offset so workers
			// collide on different certs at different times.
			for i := 0; i < uniques; i++ {
				cert := []byte(fmt.Sprintf("shared-cert-%03d", (i+w*17)%uniques))
				if _, err := l.AddChain(cert); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-sequenced
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	l.Sequence()
	if l.TreeSize() != uniques {
		t.Fatalf("tree size = %d, want %d (dedupe failed under concurrency)", l.TreeSize(), uniques)
	}
	if l.PendingCount() != 0 {
		t.Fatalf("pending = %d after final sequence", l.PendingCount())
	}
	// Resubmitting now must hit the sequenced dedupe record, not stage.
	if _, err := l.AddChain([]byte("shared-cert-000")); err != nil {
		t.Fatal(err)
	}
	if l.PendingCount() != 0 {
		t.Fatal("duplicate of sequenced entry was staged again")
	}
}

// RunSequencer drains on its ticker and performs a final publish on
// cancellation, so no accepted submission is left staged.
func TestRunSequencerDrainsOnCancel(t *testing.T) {
	l, err := New(Config{
		Name:   "ticker log",
		Signer: sct.NewFastSigner("ticker log"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.RunSequencer(ctx, time.Millisecond) }()
	for i := 0; i < 20; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("ticked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the ticker has published at least once.
	deadline := time.Now().Add(5 * time.Second)
	for l.STH().TreeHead.TreeSize == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sequencer never published")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunSequencer returned %v", err)
	}
	if l.PendingCount() != 0 {
		t.Fatalf("pending = %d after cancellation drain", l.PendingCount())
	}
	if got := l.STH().TreeHead.TreeSize; got != 20 {
		t.Fatalf("published size = %d, want 20", got)
	}
}

// flakySigner wraps a LogSigner and fails CreateSCT on demand.
type flakySigner struct {
	sct.LogSigner
	fail bool
}

var errSignerDown = fmt.Errorf("signer down")

func (f *flakySigner) CreateSCT(ts uint64, entry sct.CertificateEntry) (*sct.SignedCertificateTimestamp, error) {
	if f.fail {
		return nil, errSignerDown
	}
	return f.LogSigner.CreateSCT(ts, entry)
}

// A signing failure after staging withholds the SCT and nothing else,
// like a failed barrier: the entry stays staged with its capacity token
// spent, a resubmission is answered from the dedupe map with the first
// attempt's timestamp, and the entry sequences exactly once.
func TestSigningFailureKeepsEntryStaged(t *testing.T) {
	signer := &flakySigner{LogSigner: sct.NewFastSigner("flaky log")}
	clk := newClock()
	l, err := New(Config{Name: "flaky log", Signer: signer, Clock: clk.Now, CapacityPerSecond: 2})
	if err != nil {
		t.Fatal(err)
	}
	cert := []byte("withheld cert")
	firstTS := uint64(clk.Now().UnixMilli())
	signer.fail = true
	if _, err := l.AddChain(cert); !errors.Is(err, errSignerDown) {
		t.Fatalf("failed submission: err = %v, want errSignerDown", err)
	}
	if got := l.PendingCount(); got != 1 {
		t.Fatalf("pending = %d after the failed submission, want 1", got)
	}

	// 100 ms later the bucket has refilled 0.2 of a token: not enough to
	// give the spent one back.
	clk.Advance(100 * time.Millisecond)
	signer.fail = false
	resub, err := l.AddChain(cert)
	if err != nil {
		t.Fatalf("resubmission after recovery: %v", err)
	}
	if resub.Timestamp != firstTS {
		t.Fatalf("resubmission timestamp %d, want the first attempt's %d", resub.Timestamp, firstTS)
	}
	if got := l.PendingCount(); got != 1 {
		t.Fatalf("resubmission staged a new entry: pending = %d", got)
	}
	if _, err := l.AddChain([]byte("second cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain([]byte("third cert")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submission: err = %v, want ErrOverloaded (the failed one's token is spent)", err)
	}

	if n, err := l.Sequence(); err != nil || n != 2 {
		t.Fatalf("sequenced %d (err %v), want 2", n, err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	entries, err := l.GetEntries(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, e := range entries {
		if bytes.Equal(e.Cert, cert) {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("tree holds %d copies of the withheld cert, want 1", copies)
	}
}

// sthFlakySigner fails SignTreeHead while `fail` is set and counts the
// failures it served, so tests can prove a failed tick actually happened
// before asserting the loop survived it.
type sthFlakySigner struct {
	sct.LogSigner
	fail   atomic.Bool
	failed atomic.Int64
}

func (f *sthFlakySigner) SignTreeHead(th sct.TreeHead) (sct.DigitallySigned, error) {
	if f.fail.Load() {
		f.failed.Add(1)
		return sct.DigitallySigned{}, errSignerDown
	}
	return f.LogSigner.SignTreeHead(th)
}

// A transient publish failure (here: a hiccuping STH signer on an
// in-memory log) must not kill the sequencer loop — the staged batch is
// intact and the next tick retries. The pre-fix loop exited on the first
// failed tick, leaving the log accepting submissions it would never
// sequence.
func TestRunSequencerRetriesTransientPublishFailure(t *testing.T) {
	signer := &sthFlakySigner{LogSigner: sct.NewFastSigner("transient log")}
	l, err := New(Config{Name: "transient log", Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	signer.fail.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.RunSequencer(ctx, time.Millisecond) }()
	if _, err := l.AddChain([]byte("survives a flaky signer")); err != nil {
		t.Fatal(err)
	}
	// Let at least one tick fail while the signer is down.
	deadline := time.Now().Add(5 * time.Second)
	for signer.failed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no tick attempted a publish")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("sequencer exited on a transient failure: %v", err)
	default:
	}
	// Signer recovers; the next tick must publish the staged entry.
	signer.fail.Store(false)
	for l.STH().TreeHead.TreeSize != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sequencer never recovered after the transient failure")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunSequencer returned %v", err)
	}
}

// A sticky store failure is permanent: every future write will fail and
// submissions are already refused, so the loop must exit and surface the
// persistence error instead of spinning on a dead store.
func TestRunSequencerExitsOnStickyStoreFailure(t *testing.T) {
	l, _ := newDurableLog(t, t.TempDir(), Config{})
	for i := 0; i < 6; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("sticky-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the store before the first tick: that tick's seal record
	// fails, and the failure is sticky (a closed store refuses all
	// writes).
	l.store.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- l.RunSequencer(ctx, time.Millisecond) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPersistence) {
			t.Fatalf("RunSequencer returned %v, want ErrPersistence", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatal("sticky exit must not report cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sequencer kept running on a sticky store failure")
	}
}

// When cancellation's final drain fails, the error must say so: joined
// with ErrDrainIncomplete so callers can tell "drained clean" from
// "acknowledged entries left staged". The pre-fix return masked the
// publish failure entirely behind ctx.Err().
func TestRunSequencerDrainJoinsPublishError(t *testing.T) {
	signer := &sthFlakySigner{LogSigner: sct.NewFastSigner("dirty drain log")}
	l, err := New(Config{Name: "dirty drain log", Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain([]byte("left staged at shutdown")); err != nil {
		t.Fatal(err)
	}
	signer.fail.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = l.RunSequencer(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSequencer returned %v, want cancellation in the join", err)
	}
	if !errors.Is(err, ErrDrainIncomplete) {
		t.Fatalf("RunSequencer returned %v, want ErrDrainIncomplete in the join", err)
	}
	if !errors.Is(err, errSignerDown) {
		t.Fatalf("RunSequencer returned %v, want the publish cause preserved", err)
	}
}

// RunSequencer rejects a non-positive interval instead of ticking wild.
func TestRunSequencerRejectsNonPositiveInterval(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	if err := l.RunSequencer(context.Background(), 0); err == nil {
		t.Fatal("RunSequencer(0) must fail")
	}
}
