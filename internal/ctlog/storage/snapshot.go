package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"ctrise/internal/tlsenc"
)

// SnapshotName is the snapshot's file name inside a store directory.
const SnapshotName = "snapshot.ct"

// Snapshot is a full durable image of a log's state at one instant: the
// sequenced tail entries in tree order (entries before TiledThrough live
// in sealed tile files and are represented here only by their tile
// roots), the pending staged batch in staging order, the tree size and
// root for integrity verification, the published STH with its original
// signature bytes, and the WAL offset from which replay resumes.
// Loading a snapshot and replaying the WAL tail from WALOffset
// reconstructs byte-identical log state; the tile files are consulted
// lazily, on first read of a sealed entry or proof node.
type Snapshot struct {
	// Sequenced holds the MerkleTreeLeaf bytes of the unsealed tail:
	// entries TiledThrough..TreeSize()-1.
	Sequenced [][]byte
	// Staged holds the leaf bytes of accepted-but-unsequenced entries,
	// in staging order.
	Staged [][]byte
	// Root is the Merkle root over the whole tree (sealed tiles plus
	// Sequenced); loaders must verify it.
	Root [32]byte
	// STH is the published tree head at snapshot time. It may trail the
	// tree (publication lags sequencing by up to the MMD).
	STH STHRecord
	// WALOffset is the WAL byte offset covering everything in this
	// snapshot; replay resumes there.
	WALOffset uint64
	// TiledThrough is the span-aligned count of entries sealed into tile
	// files; 0 when nothing is tiled. TileSpan is the per-tile entry
	// count (0 only when the log has never been tiled), and TileRoots
	// holds the TiledThrough/TileSpan sealed tile subtree roots in tile
	// order.
	TiledThrough uint64
	TileSpan     uint64
	TileRoots    [][32]byte
}

// TreeSize returns the sequenced entry count the snapshot covers:
// sealed tiles plus the in-snapshot tail.
func (s *Snapshot) TreeSize() uint64 { return s.TiledThrough + uint64(len(s.Sequenced)) }

// EncodeSnapshot renders a snapshot file image: magic, meta record,
// tile-roots record, entry records (tail then staged), and the STH
// record. Encoding is canonical — the same snapshot always produces the
// same bytes.
func EncodeSnapshot(s *Snapshot) []byte {
	b := tlsenc.NewBuilder(8 + 8 + 8 + 32 + 8 + 8)
	b.AddUint64(uint64(len(s.Sequenced)))
	b.AddUint64(uint64(len(s.Staged)))
	b.AddUint64(s.WALOffset)
	b.AddBytes(s.Root[:])
	b.AddUint64(s.TiledThrough)
	b.AddUint64(s.TileSpan)
	size := MagicLen + recordOverhead*(3+len(s.Sequenced)+len(s.Staged)) + 32*len(s.TileRoots)
	for _, e := range s.Sequenced {
		size += len(e)
	}
	for _, e := range s.Staged {
		size += len(e)
	}
	out := make([]byte, 0, size+64)
	out = append(out, SnapshotMagic...)
	out = AppendRecord(out, RecordSnapMeta, b.MustBytes())
	roots := make([]byte, 0, 32*len(s.TileRoots))
	for _, r := range s.TileRoots {
		roots = append(roots, r[:]...)
	}
	out = AppendRecord(out, RecordSnapTiles, roots)
	for _, e := range s.Sequenced {
		out = AppendRecord(out, RecordEntry, e)
	}
	for _, e := range s.Staged {
		out = AppendRecord(out, RecordEntry, e)
	}
	out = AppendRecord(out, RecordSTH, EncodeSTH(s.STH))
	return out
}

// DecodeSnapshot parses and structurally validates a snapshot image.
// Unlike the WAL, a snapshot is written atomically and must be whole:
// any torn record, count mismatch, or trailing byte is ErrCorrupt.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < MagicLen {
		return nil, fmt.Errorf("%w: short snapshot header", ErrCorrupt)
	}
	for i, b := range SnapshotMagic {
		if data[i] != b {
			return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
		}
	}
	off := MagicLen
	next := func() (Record, error) {
		rec, n, err := ReadRecord(data[off:])
		if err != nil {
			return Record{}, err
		}
		off += n
		return rec, nil
	}
	meta, err := next()
	if err != nil {
		return nil, err
	}
	if meta.Type != RecordSnapMeta {
		return nil, fmt.Errorf("%w: snapshot starts with record type %d", ErrCorrupt, meta.Type)
	}
	r := tlsenc.NewReader(meta.Payload)
	nSeq := r.Uint64()
	nStaged := r.Uint64()
	walOff := r.Uint64()
	var root [32]byte
	copy(root[:], r.Bytes(32))
	tiledThrough := r.Uint64()
	tileSpan := r.Uint64()
	if err := r.ExpectEmpty(); err != nil {
		return nil, fmt.Errorf("%w: snapshot meta: %v", ErrCorrupt, err)
	}
	// An absurd count means a corrupt meta record that happened to
	// checksum — impossible in practice, but never trust a length you
	// are about to allocate. Each count is bounded individually first so
	// the sum cannot wrap uint64 past the check.
	maxEntries := uint64(len(data))/recordOverhead + 1
	if nSeq > maxEntries || nStaged > maxEntries || nSeq+nStaged > maxEntries {
		return nil, fmt.Errorf("%w: snapshot claims %d+%d entries in %d bytes", ErrCorrupt, nSeq, nStaged, len(data))
	}
	switch {
	case tileSpan == 0:
		if tiledThrough != 0 {
			return nil, fmt.Errorf("%w: snapshot tiled through %d with span 0", ErrCorrupt, tiledThrough)
		}
	case !validTileSpan(tileSpan):
		return nil, fmt.Errorf("%w: snapshot tile span %d is not a power of two ≥ 2", ErrCorrupt, tileSpan)
	case tiledThrough%tileSpan != 0:
		return nil, fmt.Errorf("%w: snapshot tiled through %d is not span-aligned (span %d)", ErrCorrupt, tiledThrough, tileSpan)
	}
	snap := &Snapshot{
		Sequenced:    make([][]byte, 0, nSeq),
		Staged:       make([][]byte, 0, nStaged),
		Root:         root,
		WALOffset:    walOff,
		TiledThrough: tiledThrough,
		TileSpan:     tileSpan,
	}
	tilesRec, err := next()
	if err != nil {
		return nil, err
	}
	if tilesRec.Type != RecordSnapTiles {
		return nil, fmt.Errorf("%w: snapshot tile roots have record type %d", ErrCorrupt, tilesRec.Type)
	}
	var wantTiles uint64
	if tileSpan != 0 {
		wantTiles = tiledThrough / tileSpan
	}
	if uint64(len(tilesRec.Payload)) != wantTiles*32 {
		return nil, fmt.Errorf("%w: snapshot has %d tile-root bytes, want %d tiles", ErrCorrupt, len(tilesRec.Payload), wantTiles)
	}
	snap.TileRoots = make([][32]byte, wantTiles)
	for i := range snap.TileRoots {
		copy(snap.TileRoots[i][:], tilesRec.Payload[32*i:])
	}
	for i := uint64(0); i < nSeq+nStaged; i++ {
		rec, err := next()
		if err != nil {
			return nil, err
		}
		if rec.Type != RecordEntry {
			return nil, fmt.Errorf("%w: snapshot entry %d has record type %d", ErrCorrupt, i, rec.Type)
		}
		if i < nSeq {
			snap.Sequenced = append(snap.Sequenced, rec.Payload)
		} else {
			snap.Staged = append(snap.Staged, rec.Payload)
		}
	}
	sthRec, err := next()
	if err != nil {
		return nil, err
	}
	if sthRec.Type != RecordSTH {
		return nil, fmt.Errorf("%w: snapshot trailer has record type %d", ErrCorrupt, sthRec.Type)
	}
	if snap.STH, err = DecodeSTH(sthRec.Payload); err != nil {
		return nil, err
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, len(data)-off)
	}
	return snap, nil
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsyncing the file before the rename and the directory
// after, so a crash leaves either the old file or the new one — never a
// torn mix. The store writes its snapshots with it.
func WriteFileAtomic(path string, data []byte) error {
	if err := replaceFile(path, data); err != nil {
		return err
	}
	// Sync the directory so the rename itself survives a crash.
	return syncDir(filepath.Dir(path))
}

// replaceFile is WriteFileAtomic without the directory fsync: data is
// written and fsynced under a temp name and renamed over path, so a
// crash leaves the old file or the new one, but the rename is durable
// only once the caller syncs the directory. Tile writes use it and sync
// the tiles directory once per seal (Store.SyncTiles).
func replaceFile(path string, data []byte) error {
	tmp, err := writeTemp(path, data)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: renaming %s: %w", tmp, err)
	}
	return nil
}

// WriteFileExclusive durably creates path holding data, unless path
// already exists: then it fails with an error matching fs.ErrExist and
// leaves the existing file alone. The file is written and fsynced under
// a temp name, hard-linked into place (link(2) refuses an existing
// name, so racing creators converge on one file) and the directory is
// fsynced. Like every file the temp-file writers create, it has mode
// 0600. cmd/ctlogd creates its signing key with it.
func WriteFileExclusive(path string, data []byte) error {
	tmp, err := writeTemp(path, data)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		return fmt.Errorf("storage: creating %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// writeTemp writes data to a new, fsynced and closed temp file beside
// path and returns its name; the caller moves it into place and removes
// the name. On failure nothing is left behind.
func writeTemp(path string, data []byte) (string, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", fmt.Errorf("storage: creating temp file: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("storage: writing %s: %w", tmp.Name(), err)
	}
	return tmp.Name(), nil
}

// MkdirDurable creates dir (and any missing parents) and fsyncs its
// parent and dir itself, so the directory entry — and with it every
// file later fsynced inside — survives a crash.
func MkdirDurable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: creating %s: %w", dir, err)
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries it holds (creations,
// links, and renames) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: opening %s to sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", dir, err)
	}
	return nil
}
