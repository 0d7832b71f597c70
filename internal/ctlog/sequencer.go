package ctlog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// The sequencer is the second phase of the stage → sequence lifecycle
// (see the package comment): it drains the pending batch AddChain and
// AddPreChain built up and integrates it into the Merkle tree. Staging
// and sequencing meet only at the batch swap under the staging mutex,
// so submitters keep staging while a batch integrates — they never wait
// on tree appends, hashing or signing.

// ErrDrainIncomplete wraps the publish error when RunSequencer's final
// drain on cancellation fails: acknowledged submissions are left staged
// (durably, on a durable log — a restart recovers and sequences them).
// It is always joined with the context's cancellation error, so callers
// distinguish a clean drain (errors.Is(err, context.Canceled) only)
// from an incomplete one (additionally errors.Is(err,
// ErrDrainIncomplete)).
var ErrDrainIncomplete = errors.New("ctlog: shutdown drain left entries staged")

// Sequence integrates every staged submission into the Merkle tree and
// returns the number of entries integrated. It does not publish an STH;
// callers that want the new tree visible to readers follow up with
// PublishSTH (which itself sequences first, so experiments usually call
// only that).
//
// The batch is integrated in canonical (timestamp, identity-hash) order,
// which makes the sequenced tree a pure function of the accepted
// submission set: concurrent submitters may stage in any interleaving —
// across goroutines, runs, or parallelism settings — and the tree bytes
// come out identical. This is what lets the timeline replay fan
// submissions out freely and still prove byte-identical trees.
//
// The batch is swapped out under the staging mutex and integrated under
// the sequencer lock alone, so neither readers nor submitters wait on
// it. On durable logs each step then appends and fsyncs one seal record
// marking the batch boundary, so recovery re-sorts exactly the same
// batches. Submissions staged meanwhile write their WAL records between
// the swap and the seal; recovery gives the seal only the staged prefix
// its tree size accounts for and leaves them staged, as the live log
// did. A persistence error leaves the batch integrated in memory but
// unsealed on disk: recovery sees those entries as still staged, a
// consistent earlier state, and the sticky store failure prevents any
// later STH from being written over the unsealed tree.
func (l *Log) Sequence() (int, error) {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	return l.sequence()
}

// sequence drains and integrates the pending batch. Requires seqMu.
func (l *Log) sequence() (int, error) {
	l.stageMu.Lock()
	batch := l.staged
	l.staged = nil
	l.stageMu.Unlock()
	if len(batch) == 0 {
		return 0, nil
	}
	sortBatch(batch)
	integrateBatch(batch, l.tree, &l.entries, l.byLeafHash)
	l.treeSize.Store(l.tree.Size())
	return len(batch), l.appendSealLocked()
}

// appendSealLocked appends and fsyncs the seal record fixing the batch
// boundary just integrated. Requires seqMu; no-op on in-memory logs.
func (l *Log) appendSealLocked() error {
	if l.store == nil {
		return nil
	}
	root, err := l.tree.Root()
	if err != nil {
		return err
	}
	if _, err := l.store.AppendSeal(storage.SealRecord{
		TreeSize: l.tree.Size(),
		Root:     [32]byte(root),
	}); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	if err := l.store.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	return nil
}

// PublishSTH sequences all staged submissions and signs and publishes a
// tree head over the resulting tree. Real logs do this periodically
// within the MMD; experiments call it at batch boundaries of the virtual
// clock. On durable logs the STH record is fsynced before the new head
// becomes visible to readers, so a served STH is always recoverable.
// The sequencer lock spans the whole step, so no other sequence step can
// slip a batch between the seal and the STH covering it; submitters keep
// staging throughout.
func (l *Log) PublishSTH() (SignedTreeHead, error) {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	if _, err := l.sequence(); err != nil {
		return SignedTreeHead{}, err
	}
	if err := l.publishLocked(); err != nil {
		return SignedTreeHead{}, err
	}
	return l.published, nil
}

// storePublishedLocked installs the published snapshot readers serve
// from: the current STH, the append-frozen resident tail it covers, the
// tile store, and a frozen proof view at the published size. Requires
// seqMu and l.published to be current. The published size may trail the
// live tree (recovery can rebuild sequenced-but-unpublished seals), but
// never the sealed prefix — sealing only happens below a published head
// — so the PrefixView precondition always holds.
func (l *Log) storePublishedLocked() error {
	view, err := l.tree.PrefixView(l.published.TreeHead.TreeSize)
	if err != nil {
		return err
	}
	n := l.published.TreeHead.TreeSize - l.tailStart
	l.pub.Store(&publishedState{
		sth:       l.published,
		tail:      l.entries[:n:n],
		tailStart: l.tailStart,
		tiles:     l.tiles,
		tree:      view,
	})
	return nil
}

func (l *Log) publishLocked() error {
	root, err := l.tree.Root()
	if err != nil {
		return err
	}
	th := sct.TreeHead{
		Timestamp: uint64(l.cfg.Clock().UnixMilli()),
		TreeSize:  l.tree.Size(),
		RootHash:  [32]byte(root),
	}
	sig, err := l.cfg.Signer.SignTreeHead(th)
	if err != nil {
		return fmt.Errorf("ctlog: signing STH: %w", err)
	}
	// Persist the head only when it covers new tree state. A wall-clock
	// sequencer republishes every tick — on an idle log that is the
	// same (size, root) under a fresh timestamp, and appending+fsyncing
	// each one would grow the WAL without bound at zero load. Skipping
	// them is safe: recovery serves the last persisted head (same tree,
	// older timestamp) and the first live tick republishes fresh.
	if ps := l.pub.Load(); l.store != nil &&
		!(ps != nil && ps.sth.TreeHead.TreeSize == th.TreeSize && ps.sth.TreeHead.RootHash == th.RootHash) {
		sigBytes, err := sig.Serialize()
		if err != nil {
			return fmt.Errorf("ctlog: serializing STH signature: %w", err)
		}
		if _, err := l.store.AppendSTH(storage.STHRecord{
			Timestamp: th.Timestamp,
			TreeSize:  th.TreeSize,
			Root:      th.RootHash,
			Sig:       sigBytes,
		}); err != nil {
			return fmt.Errorf("%w: %v", ErrPersistence, err)
		}
		if err := l.store.Sync(); err != nil {
			return fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	l.published = SignedTreeHead{TreeHead: th, Sig: sig}
	if err := l.storePublishedLocked(); err != nil {
		return err
	}
	// Seal every complete tile the new head covers, from the immutable
	// published prefix and with no staging lock held: submitters keep
	// staging while tile files are written and verified.
	sealed, err := l.sealTilesLocked()
	if err != nil {
		return err
	}
	if len(sealed) == 0 {
		return nil
	}
	// Compaction images the staged batch at the current WAL offset, so
	// entry appends must stop through the snapshot, the WAL reset and the
	// re-anchor that follow a seal.
	l.stageMu.Lock()
	defer l.stageMu.Unlock()
	return l.compactLocked(sealed)
}

// integrateBatch appends an already-ordered batch to the sequenced
// state: index assignment, tree append, entry list, and the
// leaf-hash→index lookup. It is the single integration routine for the
// live sequencer and both recovery paths (seal replay and snapshot
// load), so the rebuilt auxiliary indices can never drift from the live
// ones. Entry indexes are absolute (the tree assigns them), while the
// entries slice holds only the resident tail — on a tree recovered over
// sealed tiles the two differ by tailStart.
func integrateBatch(batch []*Entry, tree *merkle.TiledTree, entries *[]*Entry, byLeafHash *leafIndex) {
	for _, e := range batch {
		e.Index = tree.AppendLeafHash(e.leafHash)
		*entries = append(*entries, e)
		byLeafHash.set(e.leafHash, e.Index)
	}
}

// sortBatch orders a pending batch canonically. The comparator resolves
// almost always on the timestamp or the 8-byte hash prefix stamped at
// staging time; the full 32-byte compare is the correctness tiebreak for
// prefix collisions. Recovery replays batches through the same sort, so
// the rebuilt tree is byte-identical to the live one.
func sortBatch(batch []*Entry) {
	slices.SortFunc(batch, func(a, b *Entry) int {
		if a.Timestamp != b.Timestamp {
			if a.Timestamp < b.Timestamp {
				return -1
			}
			return 1
		}
		if a.idKey != b.idKey {
			if a.idKey < b.idKey {
				return -1
			}
			return 1
		}
		return bytes.Compare(a.idHash[:], b.idHash[:])
	})
}

// PendingCount reports how many accepted submissions are staged but not
// yet sequenced (a batch Sequence has swapped out no longer counts).
func (l *Log) PendingCount() int {
	l.stageMu.Lock()
	defer l.stageMu.Unlock()
	return len(l.staged)
}

// RunSequencer sequences and publishes on a wall-clock ticker until ctx
// is done — the production mode, where the interval is chosen well
// inside the MMD. A non-positive interval is rejected (there is no
// "sequence continuously" mode; pick a small interval instead). The
// interval also becomes the Retry-After hint on 429/503 responses (see
// httpError).
//
// A failed tick does not kill the loop: transient failures — a one-off
// fsync error on a non-sticky path, a hiccuping signer — retry on the
// next tick, because exiting would leave the log accepting submissions
// it never again sequences. The loop exits only when the failure is
// provably permanent: a sticky store failure (the durable log refuses
// all further writes until an operator intervenes) or context
// cancellation.
//
// On cancellation it performs one final sequence and publish so no
// accepted submission is left staged, then returns ctx.Err(). If that
// final publish fails, the result joins the cancellation error with
// ErrDrainIncomplete wrapping the cause, so callers can tell a clean
// drain from one that left acknowledged entries staged (durably staged,
// on a durable log — the next start recovers and sequences them).
func (l *Log) RunSequencer(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		return errors.New("ctlog: sequencer interval must be positive")
	}
	l.seqInterval.Store(int64(interval))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			if _, err := l.PublishSTH(); err != nil {
				return errors.Join(ctx.Err(), fmt.Errorf("%w: %w", ErrDrainIncomplete, err))
			}
			return ctx.Err()
		case <-ticker.C:
			if _, err := l.PublishSTH(); err != nil {
				if l.store != nil && l.store.Err() != nil {
					// Sticky store failure: no future tick can succeed and
					// submissions are already refused with ErrPersistence.
					return err
				}
				// Transient (the store still accepts writes, or the log is
				// in-memory): the staged batch is intact, retry next tick.
				continue
			}
		}
	}
}
