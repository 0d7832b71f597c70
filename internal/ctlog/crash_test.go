package ctlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// The crash harness. A crash at any instant leaves the WAL as some byte
// prefix of what the process had written (fsync ordering guarantees
// nothing beyond that), possibly with trailing garbage, possibly with a
// stale or missing snapshot. The harness therefore simulates "kill -9 at
// every possible moment" exhaustively: it runs a scripted workload
// against a durable log, captures the final WAL image, and then opens a
// copy truncated at EVERY byte offset — and with every byte flipped —
// requiring each recovery to land in a prefix-consistent state or fail
// loudly. "Prefix-consistent" is checked against the uninterrupted run:
//
//   - the recovered sequenced entries are a byte-identical prefix of the
//     full run's sequenced entries;
//   - the recovered published STH is one the full run actually published
//     (or genesis), and its size/root match the recovered tree;
//   - recovered staged entries are submissions the full run accepted.
//
// No recovery may ever surface an STH outside the published set: that
// would be a diverged tree head, the one unforgivable failure for a CT
// log.

// crashWorkload drives a deterministic mixed workload against l,
// returning the log it ended on, every published STH (in order) and the
// leaf bytes of every accepted submission. A non-nil reopen replaces the
// log after round 2 (9 of 15 entries sequenced and published).
func crashWorkload(t *testing.T, l *Log, clk *virtualClock, reopen func(*Log) *Log) (final *Log, sths []SignedTreeHead, accepted map[string]bool) {
	t.Helper()
	accepted = make(map[string]bool)
	record := func() {
		sths = append(sths, l.STH())
	}
	record() // genesis
	var ikh [32]byte
	ikh[5] = 99
	submit := func(precert bool, payload string) {
		t.Helper()
		var err error
		if precert {
			_, err = l.AddPreChain(ikh, []byte(payload))
		} else {
			_, err = l.AddChain([]byte(payload))
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted[payload] = true
		clk.Advance(13 * time.Second)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			submit(i%2 == 0, fmt.Sprintf("cert-r%d-i%d", round, i))
		}
		switch round % 3 {
		case 0:
			if _, err := l.PublishSTH(); err != nil {
				t.Fatal(err)
			}
			record()
		case 1:
			if _, err := l.Sequence(); err != nil {
				t.Fatal(err)
			}
		case 2:
			// Duplicate resubmission (answered from dedupe, no new record).
			if _, err := l.AddChain([]byte("cert-r0-i1")); err != nil {
				t.Fatal(err)
			}
			if _, err := l.PublishSTH(); err != nil {
				t.Fatal(err)
			}
			record()
		}
		clk.Advance(6 * time.Hour)
		if reopen != nil && round == 2 {
			l = reopen(l)
		}
	}
	// Final publish so the oracle observes the complete sequenced tree
	// through the published snapshot (crash points still cover every
	// mid-sequence prefix — they are byte offsets, not op boundaries).
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	record()
	return l, sths, accepted
}

// crashOracle is the prefix-consistency checker built from the
// uninterrupted run.
type crashOracle struct {
	// leaves[i] is the MerkleTreeLeaf encoding of full-run entry i.
	leaves [][]byte
	// sths maps published (size, root) pairs to their full tree heads.
	sths map[[40]byte]bool
	// accepted holds every payload the full run accepted.
	accepted map[string]bool
}

func sthKey(size uint64, root [32]byte) [40]byte {
	var k [40]byte
	copy(k[:32], root[:])
	for i := 0; i < 8; i++ {
		k[32+i] = byte(size >> (8 * i))
	}
	return k
}

func newCrashOracle(t *testing.T, l *Log, sths []SignedTreeHead, accepted map[string]bool) *crashOracle {
	t.Helper()
	o := &crashOracle{sths: make(map[[40]byte]bool), accepted: accepted}
	for _, sth := range sths {
		o.sths[sthKey(sth.TreeHead.TreeSize, sth.TreeHead.RootHash)] = true
	}
	size := l.TreeSize()
	if size > 0 {
		// Read the sequenced (not just published) prefix via the final
		// publish the workload ends with. Stream, not page: paging clamps
		// at tile boundaries on a tiled log.
		err := l.StreamEntries(0, size-1, func(e *Entry) error {
			leaf, err := e.MerkleTreeLeaf()
			if err != nil {
				return err
			}
			o.leaves = append(o.leaves, leaf)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// checkRecovered validates one recovered log against the oracle.
func (o *crashOracle) checkRecovered(t *testing.T, label string, l *Log) {
	t.Helper()
	size := l.TreeSize()
	if size > uint64(len(o.leaves)) {
		t.Fatalf("%s: recovered %d sequenced entries, full run had %d", label, size, len(o.leaves))
	}
	sth := l.STH()
	if !o.sths[sthKey(sth.TreeHead.TreeSize, sth.TreeHead.RootHash)] {
		t.Fatalf("%s: recovered STH (size %d) was never published — diverged tree head", label, sth.TreeHead.TreeSize)
	}
	if sth.TreeHead.TreeSize > size {
		t.Fatalf("%s: STH size %d exceeds recovered tree %d", label, sth.TreeHead.TreeSize, size)
	}
	if sth.TreeHead.TreeSize > 0 {
		i := 0
		err := l.StreamEntries(0, sth.TreeHead.TreeSize-1, func(e *Entry) error {
			leaf, err := e.MerkleTreeLeaf()
			if err != nil {
				return err
			}
			if !bytes.Equal(leaf, o.leaves[i]) {
				return fmt.Errorf("entry %d is not a prefix of the full run", i)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	// Whatever is pending must be a submission the full run accepted.
	if pending := l.PendingCount(); pending > len(o.accepted) {
		t.Fatalf("%s: %d pending entries, only %d were ever accepted", label, pending, len(o.accepted))
	}
}

// buildCrashImage runs the workload in a scratch dir with the final
// Close skipped (files as the OS saw them mid-run, no final snapshot)
// and returns the WAL image, the oracle, the optional snapshot image,
// and any sealed tile files (relative name -> contents). With reopenMid
// the log is closed and reopened once mid-workload: Close writes the
// snapshot, and the rest of the workload appends a real WAL tail after
// its cursor.
func buildCrashImage(t *testing.T, cfg Config, reopenMid bool) (wal []byte, snap []byte, tiles map[string][]byte, oracle *crashOracle) {
	t.Helper()
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, cfg)
	var reopen func(*Log) *Log
	if reopenMid {
		reopen = func(old *Log) *Log {
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, old.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
	}
	l, sths, accepted := crashWorkload(t, l, clk, reopen)
	oracle = newCrashOracle(t, l, sths, accepted)
	// Simulate the kill: abandon the log without Close. Same-process
	// reads of the WAL see every written byte regardless of fsync.
	wal, err := os.ReadFile(filepath.Join(dir, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}
	if snapData, err := os.ReadFile(filepath.Join(dir, storage.SnapshotName)); err == nil {
		snap = snapData
	}
	tiles = map[string][]byte{}
	if names, err := os.ReadDir(filepath.Join(dir, storage.TilesDirName)); err == nil {
		for _, de := range names {
			data, err := os.ReadFile(filepath.Join(dir, storage.TilesDirName, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			tiles[de.Name()] = data
		}
	}
	return wal, snap, tiles, oracle
}

// openCrashed opens a log over the given file images.
func openCrashed(t *testing.T, wal, snap []byte, tiles map[string][]byte) (*Log, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storage.WALName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := os.WriteFile(filepath.Join(dir, storage.SnapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(tiles) > 0 {
		if err := os.MkdirAll(filepath.Join(dir, storage.TilesDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range tiles {
			if err := os.WriteFile(filepath.Join(dir, storage.TilesDirName, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk := newClock()
	return Open(dir, Config{
		Name:     "Durable Test Log",
		Operator: "TestOp",
		Signer:   sct.NewFastSigner("durable-test-log"),
		Clock:    clk.Now,
	})
}

// TestCrashRecoveryAtEveryByteOffset truncates the WAL at every byte
// offset — every possible kill point — and requires recovery to restore
// a prefix-consistent state or fail loudly. Run both without a snapshot
// (full replay) and with a mid-run snapshot plus tail.
func TestCrashRecoveryAtEveryByteOffset(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		reopenMid bool
		withSnap  bool
	}{
		{"walOnly", Config{}, false, false},
		// One close and reopen mid-run lands the only snapshot mid-WAL
		// (cursor at entry 9 of 15, real WAL tail after it): cuts above
		// the cursor exercise snapshot+tail replay, cuts below exercise
		// the adopt-snapshot path (WAL prefix ends under the cursor).
		{"snapshotPlusTail", Config{}, true, true},
		// Span 4 forces several seal+truncate cycles mid-workload: the
		// final WAL is a short post-compaction tail, the snapshot carries
		// tile roots, and most of the tree lives in tile files. Every cut
		// of that WAL must recover through the tiles (including cuts below
		// the seal's re-anchored cursor, which adopt the snapshot).
		{"tiledSpan4", Config{TileSpan: 4}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wal, snap, tiles, oracle := buildCrashImage(t, tc.cfg, tc.reopenMid)
			if tc.withSnap && snap == nil {
				t.Fatal("workload produced no snapshot")
			}
			if !tc.withSnap {
				snap = nil
			}
			var cursor, snapTree uint64
			if snap != nil {
				s, err := storage.DecodeSnapshot(snap)
				if err != nil {
					t.Fatal(err)
				}
				cursor, snapTree = s.WALOffset, s.TreeSize()
			}
			adopted := 0
			for cut := 0; cut <= len(wal); cut++ {
				l, err := openCrashed(t, wal[:cut], snap, tiles)
				if err != nil {
					// Loud failure is acceptable only for structural
					// impossibilities; a plain truncation must recover
					// unless it contradicts the snapshot's cursor.
					if snap == nil {
						t.Fatalf("cut %d: open failed on pure truncation: %v", cut, err)
					}
					continue
				}
				if uint64(cut) < cursor {
					// Adopted, not rebuilt from the shorter WAL prefix:
					// the snapshot's tree must survive.
					if l.TreeSize() < snapTree {
						t.Fatalf("cut %d below the snapshot cursor rolled the tree back to %d entries, the snapshot holds %d", cut, l.TreeSize(), snapTree)
					}
					adopted++
				}
				oracle.checkRecovered(t, fmt.Sprintf("cut %d", cut), l)
				l.Close()
			}
			t.Logf("%d of the %d cuts below the snapshot cursor opened", adopted, cursor)
			if tc.reopenMid && adopted == 0 {
				t.Fatal("no cut below the snapshot cursor opened: the adopt-snapshot path went unexercised")
			}
		})
	}
}

// TestCrashRecoveryWithByteCorruption flips every single byte of the
// WAL image (one at a time) and requires recovery to either fail loudly
// or land prefix-consistent — never serve a diverged STH. Every byte flip
// of a sealed log's snapshot must fail Open with storage.ErrCorrupt: the
// WAL behind a seal is reset, so there is nothing to fall back to.
func TestCrashRecoveryWithByteCorruption(t *testing.T) {
	t.Run("walOnly", func(t *testing.T) {
		wal, _, _, oracle := buildCrashImage(t, Config{}, false)
		mut := make([]byte, len(wal))
		for i := 0; i < len(wal); i++ {
			copy(mut, wal)
			mut[i] ^= 0xFF
			l, err := openCrashed(t, mut, nil, nil)
			if err != nil {
				continue // loud failure: acceptable
			}
			oracle.checkRecovered(t, fmt.Sprintf("flip %d", i), l)
			l.Close()
		}
	})
	// Tiled: flip every byte of the post-compaction WAL tail with the
	// snapshot and tiles intact. Recovery leans on the snapshot here, so
	// most flips adopt it; none may serve a diverged head.
	t.Run("tiledSpan4", func(t *testing.T) {
		wal, snap, tiles, oracle := buildCrashImage(t, Config{TileSpan: 4}, false)
		mut := make([]byte, len(wal))
		for i := 0; i < len(wal); i++ {
			copy(mut, wal)
			mut[i] ^= 0xFF
			l, err := openCrashed(t, mut, snap, tiles)
			if err != nil {
				continue // loud failure: acceptable
			}
			oracle.checkRecovered(t, fmt.Sprintf("flip %d", i), l)
			l.Close()
		}
	})
	// Tiled, snapshot damaged: flip every byte of the snapshot with the
	// WAL and tiles intact. Every seal reset the WAL, so the snapshot is
	// the only record of the sealed prefix and the tail: each flip must
	// fail Open with ErrCorrupt. The crash oracle would accept a silently
	// empty log, so it is not the check here.
	t.Run("tiledSnapshot", func(t *testing.T) {
		wal, snap, tiles, _ := buildCrashImage(t, Config{TileSpan: 4}, false)
		mut := make([]byte, len(snap))
		for i := 0; i < len(snap); i++ {
			copy(mut, snap)
			mut[i] ^= 0xFF
			l, err := openCrashed(t, wal, mut, tiles)
			if !errors.Is(err, storage.ErrCorrupt) {
				if l != nil {
					l.Close()
				}
				t.Fatalf("flip %d of %d: err=%v, want ErrCorrupt", i, len(snap), err)
			}
		}
	})
}

// TestCrashRecoveryWithTrailingGarbage appends random-ish garbage after
// a valid WAL (a crash mid-append over recycled disk blocks) and makes
// sure recovery discards it and appends continue cleanly after reopen.
func TestCrashRecoveryWithTrailingGarbage(t *testing.T) {
	wal, _, _, oracle := buildCrashImage(t, Config{}, false)
	for _, garbage := range [][]byte{
		{0x00}, {0xFF}, bytes.Repeat([]byte{0xA5}, 37),
		storage.AppendRecord(nil, storage.RecordEntry, []byte("ghost"))[:7],
	} {
		l, err := openCrashed(t, append(append([]byte(nil), wal...), garbage...), nil, nil)
		if err != nil {
			t.Fatalf("garbage %x: %v", garbage, err)
		}
		oracle.checkRecovered(t, fmt.Sprintf("garbage %x", garbage), l)
		// The log must keep working (the torn tail was truncated away).
		if _, err := l.AddChain([]byte("post-garbage cert")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
}

// TestKillMidSequencingServesIdenticalState is the acceptance check: a
// log killed while a sequencer races concurrent submitters, restarted
// from its data dir, serves an STH and entry range identical to the
// uninterrupted original. Run with -race, this also proves the durable
// add/sequence paths are data-race free.
func TestKillMidSequencingServesIdenticalState(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	var clkMu sync.Mutex
	now := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return clk.now
	}
	l, err := Open(dir, Config{
		Name:     "Durable Test Log",
		Operator: "TestOp",
		Signer:   sct.NewFastSigner("durable-test-log"),
		Clock:    now,
	})
	if err != nil {
		t.Fatal(err)
	}

	const submitters, perSubmitter = 4, 25
	var wgSub, wgSeq sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wgSub.Add(1)
		go func(s int) {
			defer wgSub.Done()
			for i := 0; i < perSubmitter; i++ {
				if _, err := l.AddChain([]byte(fmt.Sprintf("conc-%d-%d", s, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Sequencer racing the submitters: sequence+publish continuously.
	done := make(chan struct{})
	wgSeq.Add(1)
	go func() {
		defer wgSeq.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := l.PublishSTH(); err != nil {
					t.Error(err)
					return
				}
				clkMu.Lock()
				clk.Advance(time.Second)
				clkMu.Unlock()
			}
		}
	}()
	wgSub.Wait()
	close(done)
	wgSeq.Wait()
	// One final tree-advancing publish so the live head is also the
	// last persisted head (an idle republish would not be appended to
	// the WAL), then "kill" the process: abandon l without Close (no
	// final snapshot, no graceful anything) and restart from the
	// directory.
	if _, err := l.AddChain([]byte("final-entry")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}

	// The abandoned Log still holds the directory flock (in a real kill
	// the kernel would have released it with the process), so the
	// "restarted process" opens a byte-for-byte copy of the directory.
	dir2 := t.TempDir()
	for _, name := range []string{storage.WALName, storage.SnapshotName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, err := Open(dir2, Config{
		Name:     "Durable Test Log",
		Operator: "TestOp",
		Signer:   sct.NewFastSigner("durable-test-log"),
		Clock:    now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sameLogState(t, l, l2)
	if got, want := l2.TreeSize(), uint64(submitters*perSubmitter+1); got != want {
		t.Fatalf("recovered tree size %d, want %d", got, want)
	}
	// And the restarted log serves proofs over the recovered tree.
	sth := l2.STH()
	e, err := l2.GetEntries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lh, err := e[0].LeafHash()
	if err != nil {
		t.Fatal(err)
	}
	idx, proof, err := l2.GetProofByHash(lh, sth.TreeHead.TreeSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := merkle.VerifyInclusion(lh, idx, sth.TreeHead.TreeSize, proof, merkle.Hash(sth.TreeHead.RootHash)); err != nil {
		t.Fatal(err)
	}
}
