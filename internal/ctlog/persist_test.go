package ctlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// decodeWAL splits a WAL image into its valid records and the length of
// its valid prefix, header included; a wrong magic is an error.
func decodeWAL(data []byte) ([]storage.Record, int, error) {
	if !bytes.HasPrefix(data, storage.WALMagic) {
		return nil, 0, fmt.Errorf("WAL header %q, want %q", data[:min(len(data), storage.MagicLen)], storage.WALMagic)
	}
	recs, valid := storage.ScanRecords(data[storage.MagicLen:])
	return recs, storage.MagicLen + valid, nil
}

func verifyInclusionForTest(lh merkle.Hash, idx uint64, sth SignedTreeHead, proof []merkle.Hash) error {
	return merkle.VerifyInclusion(lh, idx, sth.TreeHead.TreeSize, proof, merkle.Hash(sth.TreeHead.RootHash))
}

func verifyConsistencyForTest(before, after SignedTreeHead, proof []merkle.Hash) error {
	return merkle.VerifyConsistency(
		before.TreeHead.TreeSize, after.TreeHead.TreeSize,
		merkle.Hash(before.TreeHead.RootHash), merkle.Hash(after.TreeHead.RootHash),
		proof,
	)
}

// newDurableLog opens a durable log in dir on a fresh virtual clock,
// with a FastSigner (deterministic across reopens, like a persisted
// production key).
func newDurableLog(t *testing.T, dir string, cfg Config) (*Log, *virtualClock) {
	t.Helper()
	clk := newClock()
	if cfg.Signer == nil {
		cfg.Signer = sct.NewFastSigner("durable-test-log")
	}
	cfg.Clock = clk.Now
	if cfg.Name == "" {
		cfg.Name = "Durable Test Log"
		cfg.Operator = "TestOp"
	}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, clk
}

// sameLogState asserts that two logs are observationally identical:
// published STH (bytes, including the signature), sequenced entries,
// and pending count.
func sameLogState(t *testing.T, want, got *Log) {
	t.Helper()
	wSTH, gSTH := want.STH(), got.STH()
	if wSTH.TreeHead != gSTH.TreeHead {
		t.Fatalf("tree head mismatch:\nwant %+v\ngot  %+v", wSTH.TreeHead, gSTH.TreeHead)
	}
	if wSTH.Sig.SignatureAlgorithm != gSTH.Sig.SignatureAlgorithm || !bytes.Equal(wSTH.Sig.Signature, gSTH.Sig.Signature) {
		t.Fatal("STH signature bytes differ after reopen")
	}
	if want.TreeSize() != got.TreeSize() {
		t.Fatalf("tree size %d vs %d", want.TreeSize(), got.TreeSize())
	}
	if want.PendingCount() != got.PendingCount() {
		t.Fatalf("pending count %d vs %d", want.PendingCount(), got.PendingCount())
	}
	size := wSTH.TreeHead.TreeSize
	if size == 0 {
		return
	}
	// Stream (not page) so the comparison covers the whole published
	// range even when part of it lives in sealed tiles.
	collect := func(l *Log) [][]byte {
		var leaves [][]byte
		err := l.StreamEntries(0, size-1, func(e *Entry) error {
			leaf, err := e.MerkleTreeLeaf()
			if err != nil {
				return err
			}
			leaves = append(leaves, leaf)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return leaves
	}
	wEntries, gEntries := collect(want), collect(got)
	if len(wEntries) != len(gEntries) {
		t.Fatalf("entry count %d vs %d", len(wEntries), len(gEntries))
	}
	for i := range wEntries {
		if !bytes.Equal(wEntries[i], gEntries[i]) {
			t.Fatalf("entry %d leaf bytes differ", i)
		}
	}
}

// TestOpenFreshPublishesGenesis proves a fresh durable directory starts
// like New: an empty-tree STH, which then survives a reopen.
func TestOpenFreshPublishesGenesis(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	sth := l.STH()
	if sth.TreeHead.TreeSize != 0 {
		t.Fatalf("genesis size %d", sth.TreeHead.TreeSize)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{})
	defer l2.Close()
	sameLogState(t, l, l2)
}

// TestReopenRoundTrip walks the full lifecycle — stage, sequence,
// publish, more staging — closes, reopens, and requires byte-identical
// state, proofs included.
func TestReopenRoundTrip(t *testing.T) {
	for _, span := range []int{DefaultTileSpan, 4} {
		t.Run(fmt.Sprintf("span=%d", span), func(t *testing.T) {
			dir := t.TempDir()
			l, clk := newDurableLog(t, dir, Config{TileSpan: span})
			var ikh [32]byte
			ikh[0] = 7
			for day := 0; day < 3; day++ {
				for i := 0; i < 5; i++ {
					if _, err := l.AddChain([]byte(fmt.Sprintf("cert-%d-%d", day, i))); err != nil {
						t.Fatal(err)
					}
					if _, err := l.AddPreChain(ikh, []byte(fmt.Sprintf("tbs-%d-%d", day, i))); err != nil {
						t.Fatal(err)
					}
					clk.Advance(time.Minute)
				}
				if _, err := l.PublishSTH(); err != nil {
					t.Fatal(err)
				}
				clk.Advance(24 * time.Hour)
			}
			// Leave a staged tail so recovery has pending state too.
			if _, err := l.AddChain([]byte("staged-only")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, _ := newDurableLog(t, dir, Config{TileSpan: span})
			defer l2.Close()
			sameLogState(t, l, l2)

			// Proof paths work over the recovered tree, sealed tiles
			// included. Stream, not page: paging clamps at tile
			// boundaries on a tiled log.
			sth := l2.STH()
			err := l2.StreamEntries(0, sth.TreeHead.TreeSize-1, func(e *Entry) error {
				lh, err := e.LeafHash()
				if err != nil {
					return err
				}
				idx, proof, err := l2.GetProofByHash(lh, sth.TreeHead.TreeSize)
				if err != nil {
					return fmt.Errorf("proof for entry %d: %v", e.Index, err)
				}
				if idx != e.Index {
					return fmt.Errorf("index %d, want %d", idx, e.Index)
				}
				return verifyInclusionForTest(lh, idx, sth, proof)
			})
			if err != nil {
				t.Fatal(err)
			}
			if span == 4 && l2.TiledThrough() == 0 {
				t.Fatal("span 4 sealed no tile: the tiled reopen went unexercised")
			}
		})
	}
}

// TestReopenContinuesAppending proves a reopened log keeps growing
// consistently: new submissions sequence on top of the recovered tree
// and a consistency proof links the pre- and post-restart heads.
func TestReopenContinuesAppending(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	for i := 0; i < 4; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("pre-restart-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	before := l.STH()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, clk := newDurableLog(t, dir, Config{})
	defer l2.Close()
	clk.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if _, err := l2.AddChain([]byte(fmt.Sprintf("post-restart-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l2.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	after := l2.STH()
	if after.TreeHead.TreeSize != 7 {
		t.Fatalf("post-restart size %d, want 7", after.TreeHead.TreeSize)
	}
	proof, err := l2.GetConsistencyProof(before.TreeHead.TreeSize, after.TreeHead.TreeSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyConsistencyForTest(before, after, proof); err != nil {
		t.Fatalf("pre/post restart heads inconsistent: %v", err)
	}
}

// TestPendingAndDedupeSurviveReopen is the regression test for the
// staged-batch recovery contract: PendingCount is preserved across a
// restart, and a duplicate submitted after the restart — whether its
// original was staged or already sequenced — returns the original SCT
// (same timestamp, no new pending entry), exactly as if the process had
// never died.
func TestPendingAndDedupeSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{})
	sequenced := []byte("sequenced-cert")
	staged := []byte("staged-cert")
	sctSequenced, err := l.AddChain(sequenced)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	sctStaged, err := l.AddChain(staged)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, clk2 := newDurableLog(t, dir, Config{})
	defer l2.Close()
	if got := l2.PendingCount(); got != 1 {
		t.Fatalf("PendingCount after reopen = %d, want 1", got)
	}
	// Let wall time move on: a re-add (rather than a dedupe hit) would
	// mint a fresh, different timestamp.
	clk2.Advance(48 * time.Hour)
	dupStaged, err := l2.AddChain(staged)
	if err != nil {
		t.Fatal(err)
	}
	if dupStaged.Timestamp != sctStaged.Timestamp {
		t.Fatalf("staged duplicate timestamp %d, want original %d", dupStaged.Timestamp, sctStaged.Timestamp)
	}
	dupSequenced, err := l2.AddChain(sequenced)
	if err != nil {
		t.Fatal(err)
	}
	if dupSequenced.Timestamp != sctSequenced.Timestamp {
		t.Fatalf("sequenced duplicate timestamp %d, want original %d", dupSequenced.Timestamp, sctSequenced.Timestamp)
	}
	if got := l2.PendingCount(); got != 1 {
		t.Fatalf("duplicates grew the pending batch: %d", got)
	}
	// The recovered staged entry sequences once, not twice.
	if n, err := l2.Sequence(); err != nil || n != 1 {
		t.Fatalf("sequenced %d (err %v), want 1", n, err)
	}
	if l2.TreeSize() != 2 {
		t.Fatalf("tree size %d, want 2", l2.TreeSize())
	}
}

// TestSigningFailureEntrySurvivesReopen carries the signing-failure
// policy across a crash: the entry whose SCT was withheld comes back
// staged from its WAL record, a resubmission gets the first attempt's
// timestamp, and the WAL holds nothing but entry, seal and STH records.
func TestSigningFailureEntrySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	signer := &flakySigner{LogSigner: sct.NewFastSigner("durable-test-log")}
	l, clk := newDurableLog(t, dir, Config{Signer: signer})
	if _, err := l.AddChain([]byte("published cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	withheld := []byte("withheld cert")
	signer.fail = true
	if _, err := l.AddChain(withheld); !errors.Is(err, errSignerDown) {
		t.Fatalf("failed submission: err = %v, want errSignerDown", err)
	}
	if got := l.PendingCount(); got != 1 {
		t.Fatalf("pending = %d after the failed submission, want 1", got)
	}
	firstTS := uint64(clk.Now().UnixMilli())

	// The crash: abandon l without Close and read its files.
	wal, err := os.ReadFile(filepath.Join(dir, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, err := decodeWAL(wal)
	if err != nil || valid != len(wal) {
		t.Fatalf("WAL: valid %d of %d bytes, err %v", valid, len(wal), err)
	}
	for i, rec := range recs {
		switch rec.Type {
		case storage.RecordEntry, storage.RecordSeal, storage.RecordSTH:
		default:
			t.Fatalf("WAL record %d has type %d, want entry, seal or STH", i, rec.Type)
		}
	}
	var snap []byte
	if data, err := os.ReadFile(filepath.Join(dir, storage.SnapshotName)); err == nil {
		snap = data
	}

	// openCrashed's clock reads an hour before the failed attempt, so a
	// fresh staging of the resubmission would mint a different timestamp.
	l2, err := openCrashed(t, wal, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.PendingCount(); got != 1 {
		t.Fatalf("pending after reopen = %d, want 1", got)
	}
	resub, err := l2.AddChain(withheld)
	if err != nil {
		t.Fatal(err)
	}
	if resub.Timestamp != firstTS {
		t.Fatalf("resubmission timestamp %d, want the first attempt's %d", resub.Timestamp, firstTS)
	}
	if got := l2.PendingCount(); got != 1 {
		t.Fatalf("resubmission staged a new entry: pending = %d", got)
	}
}

// TestReopenRefusesRetiredRecordType proves record type 4, the retired
// unstage tombstone, fails closed: a well-framed type-4 record in the
// WAL tail fails Open with ErrCorrupt naming the type, and Open leaves
// every file in the directory byte for byte as it was.
func TestReopenRefusesRetiredRecordType(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	if _, err := l.AddChain([]byte("staged cert")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, storage.WALName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal = storage.AppendRecord(wal, 4, make([]byte, 32))
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)

	clk := newClock()
	_, err = Open(dir, Config{Name: "Durable Test Log", Operator: "TestOp", Signer: sct.NewFastSigner("durable-test-log"), Clock: clk.Now})
	if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), "record type 4") {
		t.Fatalf("Open over a type-4 record: err = %v, want ErrCorrupt naming type 4", err)
	}
	after := readTree(t, dir)
	if len(after) != len(before) {
		t.Fatalf("Open changed the file set: %d files before, %d after", len(before), len(after))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("Open changed %s", name)
		}
	}
}

// readTree returns the contents of every regular file under dir, keyed
// by path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestReopenWithECDSASigner proves recovery works with real ECDSA
// signatures: the restored STH carries the exact pre-crash signature
// (ECDSA is randomized, so a re-sign would differ) and verifies.
func TestReopenWithECDSASigner(t *testing.T) {
	signer, err := sct.NewSigner(&fixedReader{rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{Signer: signer})
	if _, err := l.AddChain([]byte("ecdsa cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{Signer: signer})
	defer l2.Close()
	sameLogState(t, l, l2)
	sth := l2.STH()
	if err := l2.Verifier().VerifyTreeHead(sth.TreeHead, sth.Sig); err != nil {
		t.Fatalf("recovered STH does not verify: %v", err)
	}
}

// TestOpenRejectsWrongKey proves a directory opened under a different
// signer fails loudly instead of serving STHs it could never have
// signed.
func TestOpenRejectsWrongKey(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{Signer: sct.NewFastSigner("key-A")})
	if _, err := l.AddChain([]byte("cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clk := newClock()
	_, err := Open(dir, Config{Name: "X", Signer: sct.NewFastSigner("key-B"), Clock: clk.Now})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("open with wrong key: err=%v, want ErrCorrupt", err)
	}
}

// TestCorruptSnapshotFallsBackToWAL proves snapshot corruption is not
// fatal: the uncompacted WAL rebuilds the full state.
func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	for i := 0; i < 6; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("cert-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, storage.SnapshotName)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("expected a snapshot: %v", err)
	}
	if err := os.WriteFile(snapPath, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{})
	defer l2.Close()
	sameLogState(t, l, l2)
}

// TestMidWALCorruptionAdoptsSnapshot proves that when corruption eats
// fsynced WAL records BELOW the snapshot's cursor — so the surviving
// WAL prefix ends before state the snapshot verifiably covers —
// recovery adopts the snapshot rather than silently rolling the log
// back below its published STH, and the log keeps working (and
// re-persisting consistently) afterwards.
func TestMidWALCorruptionAdoptsSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	for i := 0; i < 8; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("cert-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // writes the snapshot
		t.Fatal(err)
	}

	// Flip a byte in the middle of the WAL: the valid prefix now ends
	// well below the snapshot's cursor.
	walPath := filepath.Join(dir, storage.WALName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, _ := newDurableLog(t, dir, Config{})
	sameLogState(t, l, l2) // full state, not the corrupt WAL's prefix
	// The log keeps accepting and sequencing on the reset WAL.
	if _, err := l2.AddChain([]byte("post-corruption")); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// And a third open replays the re-anchored snapshot + fresh WAL.
	l3, _ := newDurableLog(t, dir, Config{})
	defer l3.Close()
	sameLogState(t, l2, l3)
	if l3.TreeSize() != 9 {
		t.Fatalf("tree size %d, want 9", l3.TreeSize())
	}
}

// TestCorruptSnapshotWithEmptyWALFailsLoudly covers the state after an
// adopt-snapshot recovery: the WAL is empty and the snapshot is the
// only copy of the log. If that snapshot then corrupts, Open must fail
// loudly — falling back to the empty WAL would silently restart the
// log empty, vaporizing every acked submission.
func TestCorruptSnapshotWithEmptyWALFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	for i := 0; i < 5; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("cert-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reach the adopted state: corrupt the WAL mid-file so the next open
	// adopts the snapshot and resets the WAL to an empty header.
	walPath := filepath.Join(dir, storage.WALName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{})
	if l2.TreeSize() != 5 {
		t.Fatalf("adopted tree size %d, want 5", l2.TreeSize())
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// Now the snapshot corrupts too.
	snapPath := filepath.Join(dir, storage.SnapshotName)
	snapData, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	snapData[len(snapData)/2] ^= 0xFF
	if err := os.WriteFile(snapPath, snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	clk := newClock()
	_, err = Open(dir, Config{Name: "X", Signer: sct.NewFastSigner("durable-test-log"), Clock: clk.Now})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("corrupt snapshot over empty WAL: err=%v, want ErrCorrupt", err)
	}
}

// TestDivergedSealFailsLoudly forges a WAL whose seal does not match
// its entries (a valid checksum over a lying root) and requires Open to
// refuse: this is the "never serve a diverged STH" guarantee, beyond
// what CRCs catch.
func TestDivergedSealFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	if _, err := l.AddChain([]byte("original cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the WAL: keep the records but flip a byte inside the
	// entry's certificate and re-frame it with a fresh, valid CRC. The
	// seal and STH now commit to a tree this history cannot produce.
	walPath := filepath.Join(dir, storage.WALName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, err := decodeWAL(data)
	if err != nil || valid != len(data) {
		t.Fatalf("unexpected WAL shape: valid=%d len=%d err=%v", valid, len(data), err)
	}
	forged := append([]byte(nil), storage.WALMagic...)
	for _, rec := range recs {
		payload := append([]byte(nil), rec.Payload...)
		if rec.Type == storage.RecordEntry {
			payload[len(payload)-1] ^= 0x01
		}
		forged = storage.AppendRecord(forged, rec.Type, payload)
	}
	if err := os.WriteFile(walPath, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the Close-time snapshot so recovery must replay the forged
	// WAL (with the snapshot present it would never read the prefix).
	if err := os.Remove(filepath.Join(dir, storage.SnapshotName)); err != nil {
		t.Fatal(err)
	}
	clk := newClock()
	_, err = Open(dir, Config{Name: "X", Signer: sct.NewFastSigner("durable-test-log"), Clock: clk.Now})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("forged WAL: err=%v, want ErrCorrupt", err)
	}
}

// A seal claiming more entries than the replay has staged is corruption,
// not a partial drain.
func TestRecoverySealOverclaimIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{})
	if _, err := l.AddChain([]byte("only-entry")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Sequence(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, storage.SnapshotName)); err != nil {
		t.Fatal(err)
	}
	// Append a forged seal claiming a larger tree than the WAL staged.
	s, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendSeal(storage.SealRecord{TreeSize: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Config{
		Name: "Durable Test Log", Operator: "TestOp",
		Signer: l.cfg.Signer, Clock: l.cfg.Clock,
	})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("overclaiming seal: err=%v, want ErrCorrupt", err)
	}
}

// TestDurableRecoveryWithAddsRacingSequence replays a WAL in which
// submissions raced the sequencer: staged while a large batch
// integrated, their entry records sit between the batch's drain and its
// seal record. Recovery must give the seal only the staged prefix its
// tree size accounts for and leave the racers staged — exactly the live
// log's state, down to the root.
func TestDurableRecoveryWithAddsRacingSequence(t *testing.T) {
	const batch = 20_000
	dir := t.TempDir()
	// A span above the tree size keeps everything in the WAL (no seal
	// compacts it), so recovery replays the race record by record.
	l, _ := newDurableLog(t, dir, Config{Sync: SyncAtSequence, TileSpan: 1 << 16})
	for i := 0; i < batch; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("batch-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seqDone := make(chan error, 1)
	go func() {
		_, err := l.Sequence()
		seqDone <- err
	}()
	for racer := 0; ; racer++ {
		select {
		case err := <-seqDone:
			if err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := l.AddChain([]byte(fmt.Sprintf("racer-%05d", racer))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		break
	}
	size, pending := l.TreeSize(), l.PendingCount()
	if size < batch || pending == 0 {
		t.Fatalf("live log: tree %d, pending %d; want ≥ %d sequenced and the late racers staged", size, pending, batch)
	}
	root, err := l.tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The race must have put entry records between the drain and the
	// seal, or this test proved nothing.
	data, err := os.ReadFile(filepath.Join(dir, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	beforeSeal := uint64(0)
	for _, rec := range recs {
		if rec.Type == storage.RecordSeal {
			break
		}
		if rec.Type == storage.RecordEntry {
			beforeSeal++
		}
	}
	if beforeSeal <= size {
		t.Fatalf("no racer landed between the drain and the seal (%d entry records before a seal of %d)", beforeSeal, size)
	}
	// Drop the Close-time snapshot so recovery must replay the WAL.
	if err := os.Remove(filepath.Join(dir, storage.SnapshotName)); err != nil {
		t.Fatal(err)
	}

	r, _ := newDurableLog(t, dir, Config{})
	defer r.Close()
	if got := r.TreeSize(); got != size {
		t.Fatalf("recovered tree size %d, want %d", got, size)
	}
	if got := r.PendingCount(); got != pending {
		t.Fatalf("recovered pending %d, want %d", got, pending)
	}
	if got, err := r.tree.Root(); err != nil || got != root {
		t.Fatalf("recovered root %s (err %v), want %s", got, err, root)
	}
	if n, err := r.Sequence(); err != nil || n != pending {
		t.Fatalf("sequencing recovered racers: n=%d err=%v, want %d", n, err, pending)
	}
}

// TestIdleRepublishDoesNotGrowWAL pins the idle-log property: a
// wall-clock sequencer republishing an unchanged tree appends nothing
// durable (otherwise an idle ctlogd's WAL grows without bound), while a
// tree-advancing publish still persists its head.
func TestIdleRepublishDoesNotGrowWAL(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{})
	if _, err := l.AddChain([]byte("one cert")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, storage.WALName)
	sizeAfterPublish := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := sizeAfterPublish()
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
	}
	if after := sizeAfterPublish(); after != before {
		t.Fatalf("idle republishing grew the WAL: %d -> %d", before, after)
	}
	// The recovered head is the persisted one: same tree, and still
	// served after reopen.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{})
	defer l2.Close()
	sth := l2.STH()
	if sth.TreeHead.TreeSize != 1 {
		t.Fatalf("reopened size %d, want 1", sth.TreeHead.TreeSize)
	}
}

// TestInMemoryLogUnchanged pins the zero-cost property: a log built
// with New has no store, Close is a no-op, and submissions never touch
// a filesystem.
func TestInMemoryLogUnchanged(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	if _, err := l.AddChain([]byte("cert")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Still usable after Close: nothing was shut down.
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if l.TreeSize() != 1 {
		t.Fatalf("tree size %d", l.TreeSize())
	}
}
