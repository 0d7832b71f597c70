package auditor

import (
	"fmt"

	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/sct"
)

// chain is one log's durable verified-STH chain: a storage.AppendLog
// (AuditMagic header) holding every tree head the auditor
// cryptographically verified, interleaved with cursor records
// recording the entry-consumption frontier. The chain is the auditor's
// memory across restarts: its head anchors cross-restart fork/rollback
// detection, and its cursor prevents re-streaming (and re-spot-checking)
// entries that were already audited.
//
// The chain is the WAL's code: the same flock (one auditor per state
// dir), durable creation, torn-tail rule and sticky failure. On open the
// valid record prefix is adopted and any torn tail truncated away — the
// worst a crash costs is re-verifying the last un-persisted poll, never
// a diverged anchor.
type chain struct {
	log *storage.AppendLog

	last   *ctlog.SignedTreeHead // head of the verified chain, nil if empty
	cursor uint64                // first entry index not yet consumed
}

// chainFileName is the name of a log's chain file in the state dir.
func chainFileName(logName string) string { return storage.SafeName(logName) + ".audit" }

// openChain opens (or creates) a chain file and replays its valid
// prefix. A missing file starts an empty chain; a present file with the
// wrong magic is storage.ErrCorrupt, one held by another auditor
// storage.ErrLocked.
func openChain(path string) (*chain, error) {
	log, err := storage.OpenAppendLog(path, storage.AuditMagic)
	if err != nil {
		return nil, err
	}
	c := &chain{log: log}
	if err := c.replay(); err != nil {
		log.Close()
		return nil, err
	}
	return c, nil
}

// replay folds the records found at open into the chain state, then
// drops the torn tail so appends continue from the last valid record.
func (c *chain) replay() error {
	for _, rec := range c.log.Records() {
		switch rec.Type {
		case storage.RecordSTH:
			sth, err := decodeChainSTH(rec.Payload)
			if err != nil {
				return err
			}
			c.last = &sth
		case storage.RecordAuditCursor:
			cur, err := storage.DecodeAuditCursor(rec.Payload)
			if err != nil {
				return err
			}
			c.cursor = cur
		default:
			return fmt.Errorf("%w: unexpected record type %d in audit chain", storage.ErrCorrupt, rec.Type)
		}
	}
	return c.log.Truncate(c.log.Offset())
}

// append records one newly verified tree head and the entry cursor after
// consuming its entries, fsynced before returning so the verification
// work a crash can cost is bounded at one poll.
func (c *chain) append(sth ctlog.SignedTreeHead, cursor uint64) error {
	sig, err := sth.Sig.Serialize()
	if err != nil {
		return fmt.Errorf("auditor: serializing chain STH signature: %w", err)
	}
	if _, err := c.log.Append(storage.RecordSTH, storage.EncodeSTH(storage.STHRecord{
		Timestamp: sth.TreeHead.Timestamp,
		TreeSize:  sth.TreeHead.TreeSize,
		Root:      sth.TreeHead.RootHash,
		Sig:       sig,
	})); err != nil {
		return err
	}
	off, err := c.log.Append(storage.RecordAuditCursor, storage.EncodeAuditCursor(cursor))
	if err != nil {
		return err
	}
	if err := c.log.Barrier(off); err != nil {
		return err
	}
	c.last = &sth
	c.cursor = cursor
	return nil
}

// decodeChainSTH reverses chain.append's STH encoding back into the
// in-memory form the Monitor is seeded with.
func decodeChainSTH(payload []byte) (ctlog.SignedTreeHead, error) {
	rec, err := storage.DecodeSTH(payload)
	if err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	ds, err := sct.ParseDigitallySigned(rec.Sig)
	if err != nil {
		return ctlog.SignedTreeHead{}, fmt.Errorf("%w: chain STH signature: %v", storage.ErrCorrupt, err)
	}
	return ctlog.SignedTreeHead{
		TreeHead: sct.TreeHead{
			Timestamp: rec.Timestamp,
			TreeSize:  rec.TreeSize,
			RootHash:  rec.Root,
		},
		Sig: ds,
	}, nil
}
