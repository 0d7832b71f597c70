package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

// ErrLocked is returned when another process holds an append log (and
// with it the state directory the log lives in).
var ErrLocked = errors.New("storage: state directory locked by another process")

// WALName is the write-ahead log's file name inside a store directory.
const WALName = "wal.log"

// AppendLog is the repo's one append-only record file: a magic header
// followed by framed records (AppendRecord), with the torn-tail rule of
// ScanRecords. The store's WAL and the auditor's verified-STH chains are
// AppendLogs. Opening one takes an exclusive flock, so a second writer
// fails with ErrLocked; creating one makes the header, the file and its
// directory entry durable.
//
// Appends may come from several goroutines (the CT log's submitters and
// its sequencer); record order across them is the caller's business.
// Append frames a record into a buffer the log owns, with no syscall;
// the buffer reaches the file in one write at the next Barrier, once it
// holds walBufferSize bytes, or at Close. Barrier is safe to call
// concurrently and implements group commit: one write and one fsync
// satisfy every barrier at or below the synced offset. A record that
// was appended but not barriered is therefore lost to a process kill as
// well as to a power cut; only a Barrier promises anything.
//
// Failure is sticky: after a failed write, fsync or truncate (or after
// Close) every Append and Barrier returns the first error, because a
// file whose tail may be torn must not be appended past, and after EIO
// the kernel may report an fsync failure once and drop the dirty pages,
// so a retried fsync would ack bytes that are gone. A restart recovers
// the durable prefix.
type AppendLog struct {
	// mu serializes appends, buffer writes, truncation and Close.
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool // guarded by mu
	// buf holds the framed records past fileOff, not yet written;
	// guarded by mu.
	buf []byte
	// fileOff is the file offset the next buffer write lands at;
	// guarded by mu.
	fileOff int64
	// writeOff is the append offset: fileOff plus the buffered bytes.
	writeOff atomic.Int64
	// synced is the offset known durable (covered by an fsync).
	synced atomic.Int64
	// syncMu serializes fsyncs so concurrent barriers collapse into one,
	// and keeps Truncate from moving synced under a Barrier's fsync.
	// Acquired before mu.
	syncMu sync.Mutex
	// failed holds the sticky error; set once, read without a lock.
	failed atomic.Pointer[error]
	// records holds the records of the valid prefix found at open time
	// until the first Truncate releases them.
	records []Record
	// nRecords, nWrites and nFsyncs count appended records, buffer
	// writes and fsyncs (AppendLogStats).
	nRecords, nWrites, nFsyncs atomic.Uint64
}

// walBufferSize is the buffered byte count at which Append writes the
// buffer out without waiting for a Barrier.
const walBufferSize = 1 << 20

// OpenAppendLog opens or creates the append log at path, validates its
// magic, and positions appends at the end of the valid record prefix.
// It does NOT truncate the invalid tail: whether the bytes past the
// valid prefix are crash debris to discard or records lost to mid-file
// corruption (which a snapshot may still cover) is the caller's
// decision, made with Truncate before the first append. A file too
// short to hold the magic is treated as debris from a crash during
// creation and rebuilt; a present-but-wrong magic is ErrCorrupt.
func OpenAppendLog(path string, magic []byte) (*AppendLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening %s: %w", path, err)
	}
	// One writer per file: two processes replaying, truncating and
	// appending the same log shred each other's acked records. The flock
	// rides the fd, so the kernel releases it on any exit — no stale lock
	// files after kill -9. It must be taken BEFORE the file is read:
	// reading first would capture a stale valid-prefix offset while a
	// draining predecessor appends its last fsynced records, and the
	// caller's Truncate would later cut them away.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, path)
	}
	l, err := openLocked(f, path, magic)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func openLocked(f *os.File, path string, magic []byte) (*AppendLog, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("storage: reading %s: %w", path, err)
	}
	l := &AppendLog{f: f, path: path}
	valid := MagicLen
	if len(data) >= MagicLen {
		recs, v, err := decodeAppendLog(data, magic)
		if err != nil {
			return nil, fmt.Errorf("%w: %s", err, path)
		}
		// Payloads alias data, which outlives this function; that is
		// deliberate — the caller consumes them once and releases the
		// slab with Truncate.
		l.records = recs
		valid = v
	} else {
		// Fresh (or header-torn) file: write the header and start empty.
		if err := f.Truncate(0); err != nil {
			return nil, fmt.Errorf("storage: resetting %s: %w", path, err)
		}
		if _, err := f.WriteAt(magic, 0); err != nil {
			return nil, fmt.Errorf("storage: writing %s header: %w", path, err)
		}
		// A newly created file is only as durable as its directory
		// entry: without this, a crash after acked (file-fsynced)
		// appends could lose the whole file and silently restart it
		// empty. WriteFileAtomic gives snapshots the same treatment.
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("storage: syncing new %s: %w", path, err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return nil, err
		}
	}
	l.fileOff = int64(valid)
	l.writeOff.Store(int64(valid))
	l.synced.Store(int64(valid))
	return l, nil
}

// decodeAppendLog validates an append-log image: magic header plus
// record stream. It returns the valid records and the byte offset
// (including the header) where the valid prefix ends. A missing or
// wrong magic is ErrCorrupt — the file is not this kind of log at all —
// while a torn record stream is normal crash debris and only shortens
// the prefix.
func decodeAppendLog(data, magic []byte) ([]Record, int, error) {
	if len(data) < MagicLen {
		return nil, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if !bytes.Equal(data[:MagicLen], magic) {
		return nil, 0, fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, data[:MagicLen], magic)
	}
	recs, valid := ScanRecords(data[MagicLen:])
	return recs, MagicLen + valid, nil
}

// Records returns the valid records found at open time, in append
// order, until the first Truncate releases them. Payloads alias one
// slab; callers copy what they keep.
func (l *AppendLog) Records() []Record { return l.records }

// Offset returns the append position: the end of the valid prefix at
// open, then the offset after the last append.
func (l *AppendLog) Offset() int64 { return l.writeOff.Load() }

// Err returns the sticky failure, ErrClosed after Close, or nil.
func (l *AppendLog) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the sticky failure unless one is already set,
// and returns err.
func (l *AppendLog) fail(err error) error {
	l.failed.CompareAndSwap(nil, &err)
	return err
}

// Append frames one record into the buffer and returns the offset
// after it (the Barrier that makes it durable). It makes no syscall
// unless the buffer has reached walBufferSize; an error from that write
// is returned here and, like every write failure, sticks.
func (l *AppendLog) Append(typ RecordType, payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Err(); err != nil {
		return l.writeOff.Load(), err
	}
	l.buf = AppendRecord(l.buf, typ, payload)
	off := l.writeOff.Add(int64(recordOverhead + len(payload)))
	l.nRecords.Add(1)
	if len(l.buf) >= walBufferSize {
		if err := l.writeLocked(); err != nil {
			return off, err
		}
	}
	return off, nil
}

// writeLocked writes the buffer at fileOff with one write and empties
// it. Requires mu. A buffer grown past walBufferSize by one large
// record is released rather than kept.
func (l *AppendLog) writeLocked() error {
	if err := l.Err(); err != nil {
		return err
	}
	if len(l.buf) == 0 {
		return nil
	}
	l.nWrites.Add(1)
	if _, err := l.f.WriteAt(l.buf, l.fileOff); err != nil {
		return l.fail(fmt.Errorf("storage: appending to %s: %w", l.path, err))
	}
	l.fileOff += int64(len(l.buf))
	l.buf = l.buf[:0]
	if cap(l.buf) > 2*walBufferSize {
		l.buf = nil
	}
	return nil
}

// Barrier blocks until every byte below off is durable. Concurrent
// barriers group-commit: whoever wins the sync mutex writes the buffer
// out and fsyncs up to the append offset it saw, satisfying everyone
// who queued behind it.
func (l *AppendLog) Barrier(off int64) error {
	if err := l.Err(); err != nil {
		return err
	}
	if l.synced.Load() >= off {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.Err(); err != nil {
		return err
	}
	if l.synced.Load() >= off {
		return nil
	}
	// Note the append offset with the buffer write: bytes appended after
	// it are neither written nor covered by this fsync.
	l.mu.Lock()
	target := l.writeOff.Load()
	err := l.writeLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.nFsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("storage: syncing %s: %w", l.path, err))
	}
	if l.synced.Load() < target {
		l.synced.Store(target)
	}
	return nil
}

// Truncate cuts the log to off, at most Offset: buffered bytes past it
// are dropped and the file is cut to what remains below it. It makes
// the truncation itself durable, positions appends at off and releases
// the open-time records. The store calls it at the end of recovery and
// every time a sealed tile lets the WAL be compacted; the audit chain
// calls it at open to drop a torn tail. The fsync is not optional: a
// caller that truncates then re-anchors on the new end (the snapshot
// cursor) would otherwise race a crash that resurrects the old file
// length, leaving a cursor that splits a stale record — an ErrCorrupt
// refusal on what was a perfectly recoverable crash.
func (l *AppendLog) Truncate(off int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	fileOff := min(off, l.fileOff)
	l.buf = l.buf[:max(0, off-l.fileOff)]
	if err := l.f.Truncate(fileOff); err != nil {
		return l.fail(fmt.Errorf("storage: truncating %s to %d: %w", l.path, fileOff, err))
	}
	l.nFsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("storage: syncing truncated %s: %w", l.path, err))
	}
	l.fileOff = fileOff
	l.writeOff.Store(off)
	l.synced.Store(fileOff)
	l.records = nil
	return nil
}

// AppendLogStats counts what an AppendLog has done since it was opened.
// Records divided by Fsyncs is the group-commit fan-in.
type AppendLogStats struct {
	// Records is the number of records appended.
	Records uint64
	// Writes is the number of buffer writes to the file.
	Writes uint64
	// Fsyncs is the number of fsyncs, by Barrier and Truncate.
	Fsyncs uint64
}

// Stats returns the log's counters.
func (l *AppendLog) Stats() AppendLogStats {
	return AppendLogStats{Records: l.nRecords.Load(), Writes: l.nWrites.Load(), Fsyncs: l.nFsyncs.Load()}
}

// Close writes what is still buffered (without an fsync) and releases
// the file and its lock. Further appends and barriers fail with
// ErrClosed (or the earlier sticky failure); a second Close is a no-op.
func (l *AppendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var werr error
	if l.Err() == nil {
		werr = l.writeLocked()
	}
	l.fail(ErrClosed)
	if err := l.f.Close(); werr == nil {
		return err
	}
	return werr
}
