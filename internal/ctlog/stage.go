package ctlog

import (
	"encoding/binary"
	"fmt"

	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Staging is the first phase of the stage → sequence lifecycle (see the
// package comment): a submission gets its SCT and joins the pending
// batch under the staging mutex, which — with the WAL barrier — is all a
// submitter ever waits on.

// AddChain submits a final certificate (x509_entry) and returns its SCT.
// The entry is staged, not yet integrated: it enters the Merkle tree at
// the next Sequence/PublishSTH, within the MMD.
func (l *Log) AddChain(cert []byte) (*sct.SignedCertificateTimestamp, error) {
	return l.add(sct.X509Entry(cert))
}

// AddPreChain submits a precertificate (precert_entry: issuer key hash +
// defanged TBS) and returns its SCT, which the CA embeds in the final
// certificate. Like AddChain, the entry is staged for the next sequence
// step.
func (l *Log) AddPreChain(issuerKeyHash [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	return l.add(sct.PrecertEntry(issuerKeyHash, tbs))
}

// add stages one submission. The identity hash, the entry skeleton, and
// the Merkle leaf hash are computed before the lock and the SCT is
// signed after it: none of them depend on tree or batch state, so the
// critical section is two map operations, the capacity check, a slice
// append, and — on durable logs — buffering the entry's WAL record.
// The WAL write must happen inside the lock: record order in the file
// is the lock order, which is what guarantees an entry's record always
// precedes the seal covering its batch. The fsync (the expensive part)
// happens after the lock is released, before the SCT is returned, so
// the acknowledgment is the durability point (group commit collapses
// concurrent submitters into one fsync).
//
// A failure after staging — the barrier or the signer — withholds the
// SCT and nothing else: the entry stays staged with its capacity token
// spent, it sequences within the MMD like any other, and a resubmission
// is answered from the dedupe map with the original timestamp.
func (l *Log) add(ce sct.CertificateEntry) (*sct.SignedCertificateTimestamp, error) {
	now := l.cfg.Clock()
	ts := uint64(now.UnixMilli())

	// Deduplicate on the entry identity (type + content), not the leaf
	// (which would include the new timestamp). The pre-check keeps
	// resubmissions — the replay-flood common case — at one identity hash
	// plus a map lookup, skipping the entry construction and leaf hashing
	// below; the check further down remains authoritative for racing
	// first submissions.
	idHash := merkle.Hash(ce.IdentityHash())
	l.stageMu.Lock()
	prev, dup := l.dedupe[idHash]
	l.stageMu.Unlock()
	if dup {
		return l.dedupeSCT(prev)
	}
	// Sealed entries are no longer in the map: probe the per-tile blooms
	// and index files, outside any lock (tile files are immutable). The
	// count is captured first so the locked recheck below only has to
	// cover tiles sealed after this point.
	var sealedAt uint64
	if l.tiles != nil {
		sealedAt = l.tiles.sealedTiles()
		se, err := l.tiles.lookupID(idHash, 0, sealedAt)
		if err != nil {
			return nil, err
		}
		if se != nil {
			// Re-issue over the original timestamp. No WAL sync: a
			// sealed entry has nothing volatile left to flush.
			return l.cfg.Signer.CreateSCT(se.Timestamp, se.SignatureEntry())
		}
	}
	skel := Entry{Timestamp: ts, Type: ce.Type}
	if ce.Type == sct.PrecertLogEntryType {
		skel.IssuerKeyHash = ce.IssuerKeyHash
		skel.Cert = ce.TBS
	} else {
		skel.Cert = ce.Cert
	}
	leaf, err := skel.MerkleTreeLeaf()
	if err != nil {
		return nil, err
	}
	// The leaf is hashed and WAL-appended below and served as-is by
	// get-entries, tile seals and snapshots. Parsing it back makes the
	// staged entry own exactly that buffer — Cert a sub-slice of it, the
	// bytes stamped — instead of the submitter's certificate plus a copy.
	e, err := ParseMerkleTreeLeaf(leaf)
	if err != nil {
		return nil, err
	}

	e.idHash = idHash
	e.idKey = idKeyOf(idHash)
	e.leafHash = merkle.HashLeaf(leaf)

	l.stageMu.Lock()
	if prev, ok := l.dedupe[idHash]; ok {
		l.stageMu.Unlock()
		return l.dedupeSCT(prev)
	}
	if l.tiles != nil {
		// Tiles sealed between the pre-check and here could have absorbed
		// a racing first submission of this identity; re-probe just those
		// (identities leave the map only after their tile registered, so
		// the count taken here covers them). Rare (a seal must have landed
		// in the window), so the tile IO under the lock is acceptable.
		if now := l.tiles.sealedTiles(); now > sealedAt {
			se, err := l.tiles.lookupID(idHash, sealedAt, now)
			if err != nil {
				l.stageMu.Unlock()
				return nil, err
			}
			if se != nil {
				l.stageMu.Unlock()
				return l.cfg.Signer.CreateSCT(se.Timestamp, se.SignatureEntry())
			}
		}
	}
	if l.bucket != nil && !l.bucket.Take(now) {
		l.rejected++
		l.stageMu.Unlock()
		return nil, ErrOverloaded
	}
	var walOff int64
	if l.store != nil {
		if walOff, err = l.store.AppendEntry(leaf); err != nil {
			// The record may be half-written; the store is now sticky-
			// failed so nothing appends after the torn bytes, and replay
			// discards them. The entry is not staged — memory and the
			// durable prefix agree that it does not exist.
			l.stageMu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	l.staged = append(l.staged, e)
	l.dedupe[idHash] = e
	l.stageMu.Unlock()

	if l.store != nil && l.cfg.Sync == SyncEachSubmission {
		if err := l.store.Barrier(walOff); err != nil {
			// The entry stays staged: its record is in the file and a
			// replay may well recover it, so memory must agree. Only the
			// acknowledgment is withheld.
			return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	return l.cfg.Signer.CreateSCT(ts, ce)
}

// dedupeSCT answers a resubmission: the SCT is re-issued over the
// original entry's timestamp. Entry content fields are immutable once
// staged, so reading them lock-free here is safe. A staged entry never
// leaves the batch except into the tree, so the answer holds even when
// the original submitter's own SCT was withheld.
//
// A duplicate's SCT is as strong a promise as the original's, so on a
// durable log it must not be issued over volatile state: the original's
// WAL record is in the file by the time the entry is visible in the
// dedupe map (both happen under the staging mutex), but under
// SyncEachSubmission it may not be fsynced yet — the duplicate could
// even overtake the original submitter's own Barrier. Syncing here
// closes that window, and a sticky store failure refuses the promise
// outright.
func (l *Log) dedupeSCT(prev *Entry) (*sct.SignedCertificateTimestamp, error) {
	if l.store != nil {
		if l.cfg.Sync == SyncEachSubmission {
			if err := l.store.Sync(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
			}
		} else if err := l.store.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	return l.cfg.Signer.CreateSCT(prev.Timestamp, prev.SignatureEntry())
}

// idKeyOf extracts the cheap 8-byte sort key from an identity hash; the
// live add path and WAL recovery both stamp it this way so the
// canonical batch sort behaves identically on both.
func idKeyOf(idHash merkle.Hash) uint64 {
	return binary.BigEndian.Uint64(idHash[:8])
}
