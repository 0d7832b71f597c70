package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Store is one log's durable state directory: the write-ahead log (an
// AppendLog) plus the latest snapshot and the sealed tiles. The write
// path is sticky-fail: the WAL refuses appends after any append or
// fsync error, and a failed snapshot or tile write poisons it the same
// way (fail), because state whose tail may be torn must not be built
// upon — the log above surfaces the failure to submitters and keeps
// serving reads from memory, and a restart recovers the durable prefix.
type Store struct {
	dir string
	wal *AppendLog
}

// Open opens (or initializes) the store directory: creates it if
// missing, validates the WAL, and positions appends after the last
// valid record. It does not truncate a torn tail; recovery does, with
// exactly one of CommitRecovery/ResetWAL. The recovered records are
// consumed via Replay. Once it holds the WAL's lock, Open removes the
// temp files a crash inside a snapshot or tile write left behind
// (removeOrphanTemps).
func Open(dir string) (*Store, error) {
	// MkdirDurable syncs the state directory (its tiles entry) and
	// tiles; syncing the parent makes the state directory's own entry
	// durable — a crash that loses the directory loses every fsync
	// inside it.
	if err := MkdirDurable(filepath.Join(dir, TilesDirName)); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	w, err := OpenAppendLog(filepath.Join(dir, WALName), WALMagic)
	if err != nil {
		return nil, err
	}
	removeOrphanTemps(dir)
	return &Store{dir: dir, wal: w}, nil
}

// removeOrphanTemps deletes the snapshot's and the tiles' temp files: a
// WriteFileAtomic or WriteTile that was cut between creating its temp
// file and the rename leaves one behind, and nothing else would ever
// remove it. The caller holds the WAL's lock, so no other process is
// writing one now.
// Other temp files in dir are left alone: ctlogd's racing first starts
// create key.der before either takes the lock. Removal is best effort;
// a temp file that stays costs disk, not correctness.
func removeOrphanTemps(dir string) {
	for _, pattern := range []string{
		filepath.Join(dir, SnapshotName+".tmp*"),
		filepath.Join(dir, TilesDirName, "*.tmp*"),
	} {
		names, _ := filepath.Glob(pattern)
		for _, name := range names {
			os.Remove(name)
		}
	}
}

// Err returns the sticky write failure, ErrClosed after Close, or nil.
func (s *Store) Err() error { return s.wal.Err() }

// fail makes a snapshot or tile write failure sticky for the whole
// store, WAL appends included.
func (s *Store) fail(err error) error { return s.wal.fail(err) }

// AppendEntry records one staged submission (its MerkleTreeLeaf bytes).
func (s *Store) AppendEntry(leaf []byte) (int64, error) {
	return s.wal.Append(RecordEntry, leaf)
}

// AppendSeal records a sequencing step over everything staged before it.
func (s *Store) AppendSeal(seal SealRecord) (int64, error) {
	return s.wal.Append(RecordSeal, EncodeSeal(seal))
}

// AppendSTH records a published tree head.
func (s *Store) AppendSTH(sth STHRecord) (int64, error) {
	return s.wal.Append(RecordSTH, EncodeSTH(sth))
}

// Barrier blocks until every WAL byte below off is durable (group
// commit: concurrent barriers share one fsync).
func (s *Store) Barrier(off int64) error { return s.wal.Barrier(off) }

// WALStats returns the WAL's record, write and fsync counters.
func (s *Store) WALStats() AppendLogStats { return s.wal.Stats() }

// Sync makes every appended WAL byte durable.
func (s *Store) Sync() error { return s.wal.Barrier(s.wal.Offset()) }

// WALOffset returns the current append position (the offset a snapshot
// taken now should record).
func (s *Store) WALOffset() int64 { return s.wal.Offset() }

// Replay hands the WAL's valid records from byte offset `from` onward
// to fn, in append order. Offsets outside the valid prefix are
// ErrCorrupt (a snapshot pointing past the WAL means the two files
// disagree). Replay may run more than once — recovery retries from
// genesis when a snapshot proves unusable — so the records are retained
// until the recovery commits: exactly one of CommitRecovery/ResetWAL,
// which truncate the file appropriately and release the records.
func (s *Store) Replay(from int64, fn func(Record) error) error {
	if from < MagicLen {
		from = MagicLen
	}
	if end := s.wal.Offset(); from > end {
		return fmt.Errorf("%w: replay offset %d beyond WAL end %d", ErrCorrupt, from, end)
	}
	off := int64(MagicLen)
	for _, rec := range s.wal.Records() {
		span := int64(recordOverhead + len(rec.Payload))
		if off >= from {
			if err := fn(rec); err != nil {
				return err
			}
		} else if off+span > from {
			// A resume offset inside a record means the snapshot and the
			// WAL were not written by the same history.
			return fmt.Errorf("%w: replay offset %d splits a record", ErrCorrupt, from)
		}
		off += span
	}
	return nil
}

// CommitRecovery finalizes a WAL-based recovery: the bytes past the
// valid prefix (crash debris, or mid-file corruption the caller has
// decided to accept losing) are truncated away so appends continue from
// the last valid record, and the replay records are released. Exactly
// one of CommitRecovery/ResetWAL must run before the first append.
func (s *Store) CommitRecovery() error { return s.wal.Truncate(s.wal.Offset()) }

// ResetWAL discards the entire WAL (truncates to the bare header) and
// releases the replay records. Used when recovery adopts a snapshot
// that covers more history than the surviving WAL: the snapshot is the
// verified state, and a WAL whose prefix ends below the snapshot's
// cursor can never be replayed consistently again.
func (s *Store) ResetWAL() error { return s.wal.Truncate(MagicLen) }

// WriteSnapshot atomically replaces the snapshot file.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	if err := s.Err(); err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(s.dir, SnapshotName), EncodeSnapshot(snap)); err != nil {
		return s.fail(err)
	}
	return nil
}

// LoadSnapshot reads and validates the snapshot file. It returns
// (nil, nil) when no snapshot exists and ErrCorrupt when one exists but
// fails validation. The caller decides what to fall back to: a WAL that
// was never reset still replays from genesis, one reset behind a seal
// does not.
func (s *Store) LoadSnapshot() (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, SnapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// SafeName maps a display name ("Google Pilot log") to the file-system
// safe stem of the files and directories kept for it
// ("google-pilot-log"): lower-case letters and digits are kept,
// upper-case letters are lowered, anything else becomes '-'. Distinct
// names can share a stem; callers that keep one file per name must
// reject such collisions.
func SafeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, name)
}

// TilesDirName is the sealed-tile subdirectory inside a store directory.
const TilesDirName = "tiles"

// TilePath returns the path of one tile file (ext is a TileExt*
// constant). Tile numbers render as fixed-width hex so lexicographic
// directory order is tile order.
func (s *Store) TilePath(tile uint64, ext string) string {
	return filepath.Join(s.dir, TilesDirName, fmt.Sprintf("%016x.%s", tile, ext))
}

// WriteTile writes one sealed tile's three files, each atomically:
// temp file, fsync, rename. It does not sync the tiles directory, so
// the renames are durable only after the next SyncTiles; a seal writes
// all its tiles, from concurrent workers, then syncs the directory
// once. Like the WAL append path, a failure is sticky — a tile that may
// be torn on disk must not be built upon.
func (s *Store) WriteTile(tile uint64, leaf, hash, index []byte) error {
	if err := s.Err(); err != nil {
		return err
	}
	for _, f := range []struct {
		ext  string
		data []byte
	}{{TileExtHash, hash}, {TileExtLeaf, leaf}, {TileExtIndex, index}} {
		if err := replaceFile(s.TilePath(tile, f.ext), f.data); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// SyncTiles fsyncs the tiles directory, making every tile file renamed
// into it by WriteTile durable. A failure is sticky, as in WriteTile.
func (s *Store) SyncTiles() error {
	if err := s.Err(); err != nil {
		return err
	}
	if err := syncDir(filepath.Join(s.dir, TilesDirName)); err != nil {
		return s.fail(err)
	}
	return nil
}

// ReadTile reads one tile file's raw bytes. Read failures are not
// sticky: a failed page-in must not poison the write path.
func (s *Store) ReadTile(tile uint64, ext string) ([]byte, error) {
	data, err := os.ReadFile(s.TilePath(tile, ext))
	if err != nil {
		return nil, fmt.Errorf("storage: reading tile %d.%s: %w", tile, ext, err)
	}
	return data, nil
}

// ReadLeafRange reads records [lo, hi) of the leaf tile (tile, span)
// from its .leaf file into buf, reusing its memory, and returns buf and
// the records' payloads, appended to leaves[:0] and aliasing buf. offs
// are the file's record offsets (LeafTileOffsets of its decoded image),
// which locate the range: one read of the file's header and the
// records when they follow it directly, else two. The read is checked
// on these bytes alone, with DecodeLeafTile's checks: the header's
// tile/span label first (a file of another tile fails as such even
// where its records happen to frame), then framing, per-record CRC32C,
// record type and exactly hi-lo records. A file that ends early is
// ErrCorrupt, like every failed check: the offsets came from the file
// itself, so it has been cut or replaced since. Other failures name the
// tile file and, as in ReadTile, are not sticky.
func (s *Store) ReadLeafRange(tile, span uint64, offs []uint32, lo, hi int, buf []byte, leaves [][]byte) ([]byte, [][]byte, error) {
	off, end := int64(offs[lo]), int64(offs[hi])
	buf = slices.Grow(buf[:0], int(leafTileHeaderLen+end-off))[:leafTileHeaderLen+end-off]
	f, err := os.Open(s.TilePath(tile, TileExtLeaf))
	if err != nil {
		return buf, nil, fmt.Errorf("storage: reading tile %d.%s: %w", tile, TileExtLeaf, err)
	}
	defer f.Close()
	if off == leafTileHeaderLen {
		_, err = f.ReadAt(buf, 0)
	} else if _, err = f.ReadAt(buf[:leafTileHeaderLen], 0); err == nil {
		_, err = f.ReadAt(buf[leafTileHeaderLen:], off)
	}
	if err == io.EOF {
		return buf, nil, fmt.Errorf("%w: tile %d.%s ends before byte %d", ErrCorrupt, tile, TileExtLeaf, end)
	}
	if err != nil {
		return buf, nil, fmt.Errorf("storage: reading tile %d.%s: %w", tile, TileExtLeaf, err)
	}
	if leaves, err = decodeLeafRange(buf, tile, span, hi-lo, leaves[:0]); err != nil {
		return buf, nil, fmt.Errorf("tile %d.%s: %w", tile, TileExtLeaf, err)
	}
	return buf, leaves, nil
}

// TileEquals reports whether one tile file holds exactly image: the
// same length and the same bytes. It reads the file from disk in
// len(buf)-byte chunks through buf, which the caller reuses across
// calls (a nil buf reads through a new one). Like ReadTile, a read
// failure names the tile file and is not sticky.
func (s *Store) TileEquals(tile uint64, ext string, image, buf []byte) (bool, error) {
	if len(buf) == 0 {
		buf = make([]byte, 64<<10)
	}
	f, err := os.Open(s.TilePath(tile, ext))
	if err != nil {
		return false, fmt.Errorf("storage: reading tile %d.%s: %w", tile, ext, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("storage: reading tile %d.%s: %w", tile, ext, err)
	}
	if fi.Size() != int64(len(image)) {
		return false, nil
	}
	for len(image) > 0 {
		chunk := buf[:min(len(buf), len(image))]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return false, fmt.Errorf("storage: reading tile %d.%s: %w", tile, ext, err)
		}
		if !bytes.Equal(chunk, image[:len(chunk)]) {
			return false, nil
		}
		image = image[len(chunk):]
	}
	return true, nil
}

// Close closes the store. Further writes fail with ErrClosed.
func (s *Store) Close() error { return s.wal.Close() }
