package ctlog

import (
	"bytes"
	"fmt"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Open opens (or creates) a durable log backed by dir. Recovery loads
// the latest snapshot, replays the WAL tail from the snapshot's cursor,
// and reconstructs byte-identical log state: the sequenced Merkle tree,
// the pending staged batch, the dedupe index, and the exact published
// STH (original signature bytes included). Every seal and STH in the
// replay is verified against the rebuilt tree — a mismatch is a
// divergence and Open fails loudly with ErrCorrupt rather than serve a
// tree head the durable history does not support. A torn WAL tail (a
// crash mid-append) is discarded, which recovers the last consistent
// prefix. A corrupt snapshot falls back to a genesis replay of the WAL
// only while the WAL still starts at genesis, i.e. before the first
// seal; every seal resets the WAL behind its tiles, so after it a
// corrupt snapshot fails Open with storage.ErrCorrupt.
//
// The durability contract, in submission order:
//
//   - AddChain/AddPreChain append the entry's WAL record before the SCT
//     is returned; under SyncEachSubmission (default) the record is
//     fsynced first, so an acknowledged submission survives any crash.
//   - Sequence fsyncs a seal record after integrating a batch, so the
//     batch boundary — and therefore the canonical in-batch order —
//     is durable before the tree state is observable.
//   - PublishSTH fsyncs the signed tree head before readers see it, so
//     a served STH is always recoverable.
//   - At every tile seal and on Close, a full snapshot is written
//     atomically so recovery replays only the WAL tail.
func Open(dir string, cfg Config) (*Log, error) {
	l, err := newLog(cfg)
	if err != nil {
		return nil, err
	}
	st, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	l.store = st
	// The snapshot is loaded before the tree is (re)built because the
	// tile span is a property of the directory, not the config: sealed
	// tile files are immutable, so a directory that has sealed under one
	// span keeps it for life, whatever cfg says now.
	snap, snapErr := st.LoadSnapshot()
	span := uint64(l.cfg.TileSpan)
	if snapErr == nil && snap != nil && snap.TileSpan != 0 {
		span = snap.TileSpan
		l.cfg.TileSpan = int(span)
	}
	l.tiles = newTileStore(st, span, l.cfg.PageCacheBytes)
	if l.tree, err = merkle.NewTiled(span, l.tiles); err != nil {
		st.Close()
		return nil, err
	}
	if err := l.recover(snap, snapErr); err != nil {
		st.Close()
		return nil, err
	}
	return l, nil
}

// Close makes the log's state durable (final snapshot) and releases the
// store. In-memory logs close trivially. The log must not be used after
// Close; a closed durable log refuses new submissions.
func (l *Log) Close() error {
	// The sequencer lock keeps any batch from being mid-integration — in
	// neither the staged list nor the tree — while the state is imaged;
	// the staging mutex keeps the staged list and the WAL cursor still.
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	if l.store == nil {
		return nil
	}
	l.stageMu.Lock()
	defer l.stageMu.Unlock()
	var firstErr error
	if l.store.Err() == nil {
		if err := l.store.Sync(); err != nil {
			firstErr = fmt.Errorf("%w: %v", ErrPersistence, err)
		} else if err := l.writeSnapshotLocked(); err != nil {
			firstErr = err
		}
	}
	if err := l.store.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	return firstErr
}

// recovered accumulates replayed state; it is installed into the Log
// only when the whole recovery succeeds, so a fallback (corrupt
// snapshot → full WAL replay) starts from scratch instead of from a
// half-applied attempt.
type recovered struct {
	entries    []*Entry // resident tail: entries [tiledThrough, tree.Size())
	staged     []*Entry
	tree       *merkle.TiledTree
	dedupe     map[merkle.Hash]*Entry
	byLeafHash *leafIndex
	sth        *SignedTreeHead
	// tiledThrough and tileRoots come from the snapshot: the sealed
	// prefix is NOT replayed entry by entry — the tree is rebuilt by
	// appending each recorded tile root to the spine (zero tile reads).
	tiledThrough uint64
	tileRoots    [][32]byte
}

func newRecovered(l *Log) (*recovered, error) {
	tree, err := merkle.NewTiled(l.tree.Span(), l.tiles)
	if err != nil {
		return nil, err
	}
	return &recovered{
		tree:       tree,
		dedupe:     make(map[merkle.Hash]*Entry),
		byLeafHash: &leafIndex{},
	}, nil
}

// recover rebuilds log state from the store. Called once from Open,
// before the log is visible to any other goroutine.
//
// The decision tree, in trust order: a verified snapshot plus the WAL
// tail from its cursor is the normal fast path. When the surviving WAL
// ends BELOW the snapshot's cursor — mid-file corruption ate fsynced
// records — the snapshot (written after those records were durable, and
// verified in full here) is adopted outright and the unusable WAL is
// reset, rather than silently rolling the log back to the WAL's prefix.
// Only when no usable snapshot exists does recovery fall back to a
// genesis replay of the WAL's valid prefix.
func (l *Log) recover(snap *storage.Snapshot, snapErr error) error {
	var rec *recovered
	adopted := false
	// snapUnusable: a snapshot file exists but could not be used —
	// unreadable, or inconsistent with itself or the WAL tail.
	snapUnusable := snapErr != nil
	if snapErr == nil && snap != nil {
		r, err := newRecovered(l)
		if err != nil {
			return err
		}
		if err := r.loadSnapshot(l, snap); err == nil {
			if int64(snap.WALOffset) > l.store.WALOffset() {
				rec, adopted = r, true
			} else if err := l.replayWAL(r, int64(snap.WALOffset)); err == nil {
				rec = r
			}
		}
		snapUnusable = rec == nil
		// Any other failure falls through to a replay from WAL offset 0.
		// Before the first seal that is a genesis replay, which rebuilds
		// everything the snapshot could — and if the snapshot disagreed
		// with the WAL, the WAL (the fsync-ordered record of truth) wins.
		// After a seal the WAL starts at the reset: its seal and STH
		// records cannot replay over an empty tree, and a WAL with none
		// is caught below, so Open fails with ErrCorrupt either way.
	}
	if rec == nil {
		var err error
		if rec, err = newRecovered(l); err != nil {
			return err
		}
		if err := l.replayWAL(rec, 0); err != nil {
			return err
		}
		// A corrupt snapshot over a WAL that replays no STH is NOT a
		// fresh log: every never-reset WAL carries at least the genesis
		// STH record, so its absence means the WAL was reset by a seal
		// or an adopt-snapshot recovery (the snapshot is the ONLY copy
		// of the sequenced tree — possibly plus a few staged entries
		// after the reset) or lost its whole prefix. Starting over from
		// what little the WAL holds would silently vaporize acked
		// submissions; fail loudly and leave the files for forensics.
		if snapUnusable && rec.sth == nil {
			return fmt.Errorf("%w: snapshot present but unusable (%v) and WAL holds no published history to rebuild from", storage.ErrCorrupt, snapErr)
		}
	}
	if adopted {
		if err := l.store.ResetWAL(); err != nil {
			return fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	} else if err := l.store.CommitRecovery(); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	l.entries = rec.entries
	l.staged = rec.staged
	l.tree = rec.tree
	l.treeSize.Store(rec.tree.Size())
	l.dedupe = rec.dedupe
	l.byLeafHash = rec.byLeafHash
	l.tailStart = rec.tiledThrough
	if rec.tiledThrough > 0 {
		// Register the sealed tiles: roots from the snapshot, blooms read
		// back from each tile's index file. The blooms are the sealed half
		// of the dedupe index — a tile they cannot be loaded for would
		// silently re-admit sealed duplicates, so failure is fatal here.
		if err := l.tiles.install(rec.tileRoots); err != nil {
			return err
		}
	}
	if rec.sth == nil {
		// Fresh directory (or one that crashed before genesis publish):
		// publish the empty-tree STH like New does. Everything staged in
		// the WAL stays pending until the first Sequence.
		return l.publishLocked()
	}
	l.published = *rec.sth
	if err := l.storePublishedLocked(); err != nil {
		return err
	}
	if adopted {
		// Re-anchor the snapshot's WAL cursor to the freshly reset WAL,
		// so the next open replays (the empty) tail from a real offset.
		if err := l.writeSnapshotLocked(); err != nil {
			return err
		}
	}
	return nil
}

// stageLeaf reconstructs one entry from its durable leaf bytes and
// stages it: the identity hash, sort key, and Merkle leaf hash are
// recomputed from content exactly as the live add path computed them.
func (r *recovered) stageLeaf(leaf []byte) error {
	// Clone: record payloads alias the WAL/snapshot read buffer, which
	// is released after recovery; entries own their bytes.
	e, err := ParseMerkleTreeLeaf(bytes.Clone(leaf))
	if err != nil {
		return fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
	}
	e.idHash = e.SignatureEntry().IdentityHash()
	e.idKey = idKeyOf(e.idHash)
	e.leafHash = merkle.HashLeaf(leaf)
	if _, dup := r.dedupe[e.idHash]; dup {
		return fmt.Errorf("%w: duplicate entry identity %s in durable state", storage.ErrCorrupt, e.idHash)
	}
	r.staged = append(r.staged, e)
	r.dedupe[e.idHash] = e
	return nil
}

// seal drains the sealed batch through the canonical sort into the
// tree — the exact live-sequencer integration — then verifies the
// result against what the live log recorded. A mismatch means the
// durable history cannot reproduce the tree it claims; recovery fails
// loudly rather than serve diverged state.
//
// The seal's batch is the staged PREFIX its tree size accounts for, in
// WAL file order: record order is staging order, so every record of the
// drained batch precedes the drain point, and submissions staged while
// the batch integrated (their records landed between the drain and the
// seal) belong to the NEXT batch — on the live log they stayed staged,
// so here they must too.
func (r *recovered) seal(s storage.SealRecord) error {
	if s.TreeSize < r.tree.Size() {
		return fmt.Errorf("%w: seal claims tree size %d below replayed %d", storage.ErrCorrupt, s.TreeSize, r.tree.Size())
	}
	n := s.TreeSize - r.tree.Size()
	if n > uint64(len(r.staged)) {
		return fmt.Errorf("%w: seal claims tree size %d, replay staged only %d of the %d entries it needs", storage.ErrCorrupt, s.TreeSize, len(r.staged), n)
	}
	batch := r.staged[:n]
	r.staged = r.staged[n:]
	sortBatch(batch)
	integrateBatch(batch, r.tree, &r.entries, r.byLeafHash)
	if r.tree.Size() != s.TreeSize {
		return fmt.Errorf("%w: seal claims tree size %d, replay built %d", storage.ErrCorrupt, s.TreeSize, r.tree.Size())
	}
	root, err := r.tree.Root()
	if err != nil {
		return fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
	}
	if root != merkle.Hash(s.Root) {
		return fmt.Errorf("%w: seal root mismatch at size %d: recorded %s, replayed %s", storage.ErrCorrupt, s.TreeSize, merkle.Hash(s.Root), root)
	}
	return nil
}

// applySTH validates a recorded tree head against the rebuilt tree (the
// recorded size must be a prefix whose root matches) and against the
// log's signer (so a directory served with the wrong key fails loudly
// instead of republishing another log's heads), then installs it as the
// latest published head.
func (r *recovered) applySTH(l *Log, rec storage.STHRecord) error {
	if rec.TreeSize > r.tree.Size() {
		return fmt.Errorf("%w: STH covers %d entries, replay built %d", storage.ErrCorrupt, rec.TreeSize, r.tree.Size())
	}
	root, err := r.tree.RootAt(rec.TreeSize)
	if err != nil {
		return fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
	}
	if root != merkle.Hash(rec.Root) {
		return fmt.Errorf("%w: STH root mismatch at size %d", storage.ErrCorrupt, rec.TreeSize)
	}
	sig, err := sct.ParseDigitallySigned(rec.Sig)
	if err != nil {
		return fmt.Errorf("%w: STH signature: %v", storage.ErrCorrupt, err)
	}
	th := sct.TreeHead{Timestamp: rec.Timestamp, TreeSize: rec.TreeSize, RootHash: rec.Root}
	if err := l.cfg.Signer.Verifier().VerifyTreeHead(th, sig); err != nil {
		return fmt.Errorf("%w: recorded STH fails verification against this log's key: %v", storage.ErrCorrupt, err)
	}
	r.sth = &SignedTreeHead{TreeHead: th, Sig: sig}
	return nil
}

// loadSnapshot installs a full-state snapshot into rec, verifying the
// rebuilt tree against the snapshot's recorded size and root. The sealed
// prefix reconstructs from the recorded tile roots alone — O(tiles)
// spine appends, no entry bytes, no tile reads — and only the resident
// tail integrates leaf by leaf.
func (r *recovered) loadSnapshot(l *Log, snap *storage.Snapshot) error {
	if snap.TileSpan != 0 && snap.TileSpan != r.tree.Span() {
		return fmt.Errorf("%w: snapshot tile span %d, directory opened with %d", storage.ErrCorrupt, snap.TileSpan, r.tree.Span())
	}
	for _, root := range snap.TileRoots {
		if err := r.tree.AppendSealedTile(merkle.Hash(root)); err != nil {
			return fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
		}
	}
	r.tiledThrough = snap.TiledThrough
	r.tileRoots = snap.TileRoots
	for _, leaf := range snap.Sequenced {
		if err := r.stageLeaf(leaf); err != nil {
			return err
		}
	}
	// Snapshot entries are stored in sequenced order: integrate them
	// as-is (no re-sort — the canonical order was fixed when their
	// batches sealed, and re-sorting across batch boundaries would
	// reorder the tree).
	seq := r.staged
	r.staged = nil
	integrateBatch(seq, r.tree, &r.entries, r.byLeafHash)
	if r.tree.Size() != snap.TreeSize() {
		return fmt.Errorf("%w: snapshot size mismatch", storage.ErrCorrupt)
	}
	root, err := r.tree.Root()
	if err != nil {
		return fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
	}
	if root != merkle.Hash(snap.Root) {
		return fmt.Errorf("%w: snapshot root mismatch: recorded %s, rebuilt %s", storage.ErrCorrupt, merkle.Hash(snap.Root), root)
	}
	for _, leaf := range snap.Staged {
		if err := r.stageLeaf(leaf); err != nil {
			return err
		}
	}
	if err := r.applySTH(l, snap.STH); err != nil {
		return err
	}
	return nil
}

// replayWAL folds the WAL records from byte offset `from` into rec.
func (l *Log) replayWAL(r *recovered, from int64) error {
	return l.store.Replay(from, func(rec storage.Record) error {
		switch rec.Type {
		case storage.RecordEntry:
			return r.stageLeaf(rec.Payload)
		case storage.RecordSeal:
			seal, err := storage.DecodeSeal(rec.Payload)
			if err != nil {
				return err
			}
			return r.seal(seal)
		case storage.RecordSTH:
			sth, err := storage.DecodeSTH(rec.Payload)
			if err != nil {
				return err
			}
			return r.applySTH(l, sth)
		default:
			return fmt.Errorf("%w: unknown WAL record type %d", storage.ErrCorrupt, rec.Type)
		}
	})
}

// writeSnapshotLocked dumps the full log state — the sealed prefix as
// tile roots, the resident tail's entries in tree order, the staged
// batch, root, published STH, and the WAL cursor — into an
// atomically-replaced snapshot file. Requires seqMu and stageMu (or a
// log no other goroutine can see yet, during recovery). Snapshot cost is
// O(tail + staged + tile count), not O(tree): the sealed entries
// themselves live in the tiles.
func (l *Log) writeSnapshotLocked() error {
	root, err := l.tree.Root()
	if err != nil {
		return err
	}
	snap := &storage.Snapshot{
		Sequenced:    make([][]byte, len(l.entries)),
		Staged:       make([][]byte, len(l.staged)),
		Root:         [32]byte(root),
		WALOffset:    uint64(l.store.WALOffset()),
		TiledThrough: l.tailStart,
		TileSpan:     l.tree.Span(),
		TileRoots:    l.tiles.rootsImage(),
	}
	for i, e := range l.entries {
		if snap.Sequenced[i], err = e.leafBytes(); err != nil {
			return err
		}
	}
	for i, e := range l.staged {
		if snap.Staged[i], err = e.leafBytes(); err != nil {
			return err
		}
	}
	sigBytes, err := l.published.Sig.Serialize()
	if err != nil {
		return err
	}
	snap.STH = storage.STHRecord{
		Timestamp: l.published.TreeHead.Timestamp,
		TreeSize:  l.published.TreeHead.TreeSize,
		Root:      l.published.TreeHead.RootHash,
		Sig:       sigBytes,
	}
	if err := l.store.WriteSnapshot(snap); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	return nil
}
