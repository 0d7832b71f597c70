package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

// ErrLocked is returned when another process holds the store directory.
var ErrLocked = errors.New("storage: state directory locked by another process")

// WALName is the write-ahead log's file name inside a store directory.
const WALName = "wal.log"

// wal is the append side of the write-ahead log. Appends may come from
// several goroutines (the CT log's submitters and its sequencer); record
// order across them is the caller's business (the log appends a batch's
// entry records before draining it, so they land before its seal).
// Barrier is safe to call concurrently from many acked submitters and
// implements group commit: one fsync satisfies every barrier at or below
// the synced offset.
type wal struct {
	// mu serializes appends and truncation.
	mu sync.Mutex
	f  *os.File
	// writeOff is the file offset after the last buffered append.
	writeOff atomic.Int64
	// synced is the offset known durable (covered by an fsync).
	synced atomic.Int64
	// syncMu serializes fsyncs so concurrent barriers collapse into one.
	// syncErr (guarded by syncMu) makes an fsync failure sticky at this
	// level: after EIO the kernel may report the error once and drop the
	// dirty pages, so a queued waiter retrying the fsync would see
	// success and ack a submission whose bytes are gone.
	syncMu  sync.Mutex
	syncErr error
	// records holds the replayable records of the valid prefix found at
	// open time; Store.Replay hands them to the log and drops the slice.
	records []Record
}

// openWAL opens or creates dir's WAL, validates it, and positions
// appends at the end of the valid prefix. It does NOT truncate the
// invalid tail yet: whether the bytes past the valid prefix are crash
// debris to discard or fsynced records lost to mid-file corruption (in
// which case the snapshot may still cover them) is a recovery decision,
// made by the log via CommitRecovery/ResetWAL before any append runs.
// A file too short to hold the magic header is treated as debris from a
// crash during creation and rebuilt; a present-but-wrong magic is
// ErrCorrupt.
func openWAL(dir string) (*wal, error) {
	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening WAL: %w", err)
	}
	// One writer per state directory: two processes replaying,
	// truncating, and appending the same WAL shred each other's acked
	// records. The flock rides the WAL fd, so the kernel releases it on
	// any exit — no stale lock files after kill -9. It must be taken
	// BEFORE the file is read: reading first would capture a stale
	// valid-prefix offset while a draining predecessor appends its last
	// fsynced records, and recovery would later truncate them away.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, path)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: reading WAL: %w", err)
	}
	w := &wal{}
	valid := MagicLen
	if len(data) >= MagicLen {
		recs, v, derr := DecodeWAL(data)
		if derr != nil {
			f.Close()
			return nil, derr
		}
		// Payloads alias data, which outlives this function; that is
		// deliberate — replay consumes them once and releases the slab.
		w.records = recs
		valid = v
	}
	if len(data) < MagicLen {
		// Fresh (or header-torn) file: write the header and start empty.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: resetting WAL: %w", err)
		}
		if _, err := f.WriteAt(WALMagic, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: writing WAL header: %w", err)
		}
		// A newly created file is only as durable as its directory
		// entry: without this, a crash after acked (file-fsynced)
		// submissions could lose the whole WAL and silently restart the
		// log empty. WriteFileAtomic gives snapshots the same treatment.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: syncing new WAL: %w", err)
		}
		if err := SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seeking WAL: %w", err)
	}
	w.f = f
	w.writeOff.Store(int64(valid))
	w.synced.Store(int64(valid))
	return w, nil
}

// append frames and writes one record, returning the offset after it.
func (w *wal) append(typ RecordType, payload []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := AppendRecord(nil, typ, payload)
	if _, err := w.f.Write(buf); err != nil {
		return w.writeOff.Load(), fmt.Errorf("storage: WAL append: %w", err)
	}
	off := w.writeOff.Add(int64(len(buf)))
	return off, nil
}

// barrier blocks until every byte below off is durable. Concurrent
// barriers group-commit: whoever wins the sync mutex fsyncs the current
// write offset, satisfying everyone who queued behind it.
func (w *wal) barrier(off int64) error {
	if w.synced.Load() >= off {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncErr != nil {
		return w.syncErr
	}
	if w.synced.Load() >= off {
		return nil
	}
	// Snapshot the write offset before syncing: bytes appended after the
	// fsync call starts are not guaranteed durable by it.
	target := w.writeOff.Load()
	if err := w.f.Sync(); err != nil {
		w.syncErr = fmt.Errorf("storage: WAL fsync: %w", err)
		return w.syncErr
	}
	if w.synced.Load() < target {
		w.synced.Store(target)
	}
	return nil
}

// truncateTo cuts the file to off, makes the truncation itself durable,
// and repositions appends there. Called at the end of recovery and every
// time a sealed tile lets the WAL be compacted. The fsync is not
// optional: the callers that truncate then re-anchor the snapshot cursor
// at the new end would otherwise race a crash that resurrects the old
// file length, leaving a snapshot whose offset splits a stale record —
// an ErrCorrupt refusal on what was a perfectly recoverable crash.
func (w *wal) truncateTo(off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(off); err != nil {
		return fmt.Errorf("storage: truncating WAL to %d: %w", off, err)
	}
	if _, err := w.f.Seek(off, 0); err != nil {
		return fmt.Errorf("storage: seeking WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing truncated WAL: %w", err)
	}
	w.writeOff.Store(off)
	w.synced.Store(off)
	w.records = nil
	return nil
}

func (w *wal) close() error {
	return w.f.Close()
}
