package ctlog

import (
	"fmt"
	"sync"

	"ctrise/internal/merkle"
)

// Lock-free proof serving. Inclusion proofs, consistency proofs, and
// proof-by-hash at a published tree size are pure functions of the
// immutable published prefix, so — like get-sth and get-entries before
// them — they are served entirely from the publishedState snapshot and
// touch neither of the log's locks. The pieces:
//
//   - publishedState.tree is a merkle PrefixView frozen at the published
//     size when publishLocked installs the snapshot: an O(log n) freeze
//     of the live tree's level caches that answers proofs for any size
//     ≤ the published head, backed by the frozen RAM slices for the
//     resident range and by the (immutable, page-cached) tile files for
//     the sealed prefix. Requests above the published head fail with the
//     same merkle errors the live tree returned for sizes above its
//     head, so the HTTP status surface is unchanged.
//   - byLeafHash, the hash → index lookup behind get-proof-by-hash, is a
//     leafIndex (sync.Map) instead of a mutex-guarded map: the sequencer
//     inserts under its own lock, readers resolve hashes with an atomic
//     lookup. Sealed hashes leave the map only after their tile
//     registers in the tileStore (sealTilesLocked's install phase runs
//     after every tile of the seal is written and registered), so a
//     reader that misses the map always
//     finds the hash through the per-tile blooms — there is no window
//     where a published leaf resolves nowhere.
//
// A proof reader therefore observes one consistent published view end
// to end while a batch integrates or tiles seal, and never queues
// behind either.

// leafIndex maps Merkle leaf hash → entry index for the resident
// (unsealed) sequenced range. Writes happen under the sequencer lock
// (the sequencer integrating a batch, the seal install pruning behind
// the tiles) or before the log is visible (recovery); reads are
// lock-free.
// Indices are immutable once assigned, so a racing read can never
// observe a wrong value — only a hash's presence moves, and only from
// this map into the sealed tiles' hash files.
type leafIndex struct{ m sync.Map }

func (ix *leafIndex) set(h merkle.Hash, idx uint64) { ix.m.Store(h, idx) }

func (ix *leafIndex) delete(h merkle.Hash) { ix.m.Delete(h) }

func (ix *leafIndex) get(h merkle.Hash) (uint64, bool) {
	v, ok := ix.m.Load(h)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// GetConsistencyProof returns the proof that the tree of size first is a
// prefix of the tree of size second. Like the other proof endpoints it
// is served lock-free from the published snapshot, so second may be at
// most the published tree size; RFC 6962 clients only ever ask about
// sizes they saw in an STH, which are published by construction.
func (l *Log) GetConsistencyProof(first, second uint64) ([]merkle.Hash, error) {
	return l.pub.Load().tree.ConsistencyProof(first, second)
}

// GetProofByHash returns the inclusion proof and index for a leaf hash
// at the given tree size, served lock-free from the published snapshot.
// The resident range resolves through the leafIndex, sealed leaves
// through the per-tile leaf blooms and the sorted leaf keys of each
// candidate's hash tile — the root-pinned page the audit path is read
// from next, so a sealed proof by hash pages in the .hash file only and
// never reads the .idx file. Both go through the page cache. treeSize may
// be at most the published tree size: the live tree can run ahead of
// the head by up to one sequence step, but proofs over unpublished
// state would pin the log to an STH it never signed.
func (l *Log) GetProofByHash(leafHash merkle.Hash, treeSize uint64) (uint64, []merkle.Hash, error) {
	ps := l.pub.Load()
	idx, ok := l.byLeafHash.get(leafHash)
	if !ok && ps.tiles != nil {
		// Not resident: the hash either lives in a sealed tile or is
		// unknown. The map is probed first — a hash can move from the map
		// to the tiles (never back), and deletion happens only after the
		// tile registers, so missing both means it truly is not sequenced.
		var err error
		idx, ok, err = ps.tiles.lookupLeafIndex(leafHash)
		if err != nil {
			return 0, nil, err
		}
	}
	if !ok {
		return 0, nil, ErrNotFound
	}
	if idx >= treeSize {
		return 0, nil, fmt.Errorf("%w: leaf %d not in tree of size %d", ErrBadRange, idx, treeSize)
	}
	proof, err := ps.tree.InclusionProof(idx, treeSize)
	return idx, proof, err
}
