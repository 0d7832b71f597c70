package ctlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
)

// Tiled storage. On durable logs, sequenced entries do not stay resident
// forever: once a span-aligned prefix of the tree is covered by a
// published STH, it is sealed into immutable on-disk tiles (leaf bytes,
// Merkle subtree hashes, and a bloom-fronted lookup index per tile — see
// storage/tile.go for the formats) and evicted from RAM. From then on
// get-entries, get-proof-by-hash, and get-consistency are served from
// the tiles through a byte-budget LRU page cache. The dedupe check for
// sealed entries goes through per-tile identity blooms + binary-searched
// index files, the leaf-hash lookup through per-tile leaf blooms + the
// sorted leaf keys of the hash tile the proof reads anyway, and —
// because the snapshot now carries the tile roots instead of the sealed
// entries — the WAL is truncated behind the seal. RAM and WAL therefore
// stay bounded by the mutable edge (tail + staged batch + ~4 bloom bytes
// per sealed entry), plus whatever pages reads and dedupe lookups asked
// for, up to the page-cache budget — independent of tree size. Neither
// sealing nor Open leaves anything in the cache.
//
// Each kind of cached page holds only what its readers use:
//
//   - a hash page (hashTile) holds the tile's root-pinned Merkle levels,
//     read by proofs and the offsets page's cross-check, and its leaf
//     hashes as sorted uint64 keys (leafKeys), read by get-proof-by-hash;
//     it is charged its file bytes plus 8 bytes a leaf;
//   - an offsets page (leafOffsets) holds one 32-bit file offset per leaf
//     record, read by every sealed leaf read, charged 4 × (span+1). Leaf
//     bytes are never cached: each sealed read reads the .leaf file's
//     header and just the records it serves into a buffer of its own,
//     checking them on that read (tileStore.readLeaves). The kernel's
//     file cache is the only cache that holds them;
//   - an index page (idRows) holds the .idx file's identity rows, read by
//     a dedupe lookup whose identity bloom hit the tile, charged 40 ×
//     span. The file's leaf rows are validated when it is decoded and
//     dropped: no reader uses them.
//
// The resident blooms are bit-sliced (storage.SlicedBlooms): the same
// bloom bytes the index files hold, transposed in blocks of 64 tiles, so
// probing every sealed tile for one hash costs K word loads per 64 tiles
// rather than a bloom test per tile. What still grows with tile count is
// the bloom false positives (≈ 0.0024 index lookups per tile probed).
//
// The seal is three-phase, and the ordering is the crash-safety
// argument:
//
//  1. Write: the tiles the publish covers are sealed concurrently, by
//     min(tiles, GOMAXPROCS) workers (sealWorker). For each tile a
//     worker encodes the three files from the entries' stamped leaf
//     bytes and leaf hashes, pins the hash tile's root to the tree's
//     subtree root (computed before the fan-out), writes each file to a
//     temp file, fsyncs and renames it, then reads the files back
//     straight from disk — not through the page cache — and compares
//     them byte for byte with the images written (tileStore.verify).
//     Once every worker has finished, the tiles directory is fsynced
//     once (Store.SyncTiles), making every rename of the seal durable.
//     Bytes equal to the images are the leaves and hashes the tree
//     committed to, so the tile is trusted for the rest of the process:
//     its offsets page is built without a cross-check, and each leaf
//     read checks CRC, framing, label, count and leaf syntax only (see
//     tileStore.leafOffsets and readLeaves). A crash or a failed worker
//     here leaves orphan tile files that the next seal rewrites and
//     re-reads.
//  2. Install: only after the directory fsync, and only if every worker
//     succeeded, the tile roots + the blooms of the indexes the workers
//     built register in the tileStore, in tile order; the tree prunes
//     its sub-tile levels (merkle.TiledTree.Seal), and the sealed
//     entries leave the tail and the proof map.
//  3. Compact (the only phase under the staging mutex): the sealed
//     identities leave the dedupe map, a snapshot carrying the tile
//     roots and the now-short tail is written at the current WAL offset,
//     the WAL is truncated to its header (fsynced), and a second
//     snapshot re-anchors the cursor at the truncated offset. A crash
//     between the truncate and the second snapshot is the existing
//     adopt-snapshot recovery path: the first snapshot's cursor lies
//     beyond the WAL end, so recovery adopts it and re-anchors, exactly
//     as it does for mid-file WAL corruption.

// Page-cache kinds: a hash tile with its leaf keys, a leaf tile's
// offsets page, an index's identity rows.
const (
	pageKindHash    uint8 = 1
	pageKindOffsets uint8 = 2
	pageKindIndex   uint8 = 3
)

// tileStore serves sealed tiles: it implements merkle.NodeSource for the
// tree's pruned levels and the sealed-entry read/lookup paths for the
// log, every read and lookup flowing through one page cache (the seal's
// verify reads around it). The mutable metadata
// (tile roots, resident blooms, cross-check flags) is guarded by its own
// mutex so readers never touch the log's; the tile files themselves are
// immutable once sealed.
type tileStore struct {
	st    *storage.Store
	span  uint64
	tlvl  uint // log2(span)
	cache *storage.PageCache

	mu    sync.RWMutex
	roots []merkle.Hash
	// ids and leaves hold every registered tile's identity-hash and
	// leaf-hash blooms, bit-sliced so a probe over all sealed tiles costs
	// K word loads per 64 tiles.
	ids, leaves *storage.SlicedBlooms
	// checked[tile] records that this process trusts the tile's leaf
	// file: its seal's verify found the written bytes on disk, or the
	// offsets-page build of a tile installed by Open cross-checked it
	// against its hash tile and registered root. It is never persisted,
	// so every restart re-earns it.
	checked []bool

	// leafReads and leafReadBytes count readLeaves' ranged reads and the
	// bytes they read (ctlog_leaf_reads_total, ctlog_leaf_read_bytes_total).
	leafReads, leafReadBytes atomic.Uint64
}

// verifyChunk is the size of a seal worker's read-back buffer: how much
// of a tile file verify reads per call.
const verifyChunk = 256 << 10

func newTileStore(st *storage.Store, span uint64, cacheBytes int64) *tileStore {
	tlvl := uint(0)
	for s := span; s > 1; s >>= 1 {
		tlvl++
	}
	return &tileStore{
		st: st, span: span, tlvl: tlvl, cache: storage.NewPageCache(cacheBytes),
		ids: storage.NewSlicedBlooms(int(span)), leaves: storage.NewSlicedBlooms(int(span)),
	}
}

// sealedTiles returns the number of registered sealed tiles.
func (ts *tileStore) sealedTiles() uint64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return uint64(len(ts.roots))
}

// rootAt returns the registered root of one sealed tile.
func (ts *tileStore) rootAt(tile uint64) (merkle.Hash, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if tile >= uint64(len(ts.roots)) {
		return merkle.Hash{}, false
	}
	return ts.roots[tile], true
}

// register appends one sealed tile's root and the blooms of the index
// the seal built; tiles register in order. Its caller is the seal, whose
// verify has just found exactly the written files on disk, so the tile
// registers as checked.
func (ts *tileStore) register(tile uint64, root merkle.Hash, ix *storage.TileIndex) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if uint64(len(ts.roots)) != tile {
		return fmt.Errorf("ctlog: registering tile %d after %d tiles", tile, len(ts.roots))
	}
	ts.roots = append(ts.roots, root)
	ts.ids.Add(tile, ix.IDBloom)
	ts.leaves.Add(tile, ix.LeafBloom)
	ts.checked = append(ts.checked, true)
	return nil
}

// isChecked reports whether this process trusts the tile's leaf file.
// Only leafOffsets asks, and only about registered tiles: a tile sealed
// by this process registers checked, a tile installed by Open starts
// unchecked until its first offsets-page build.
func (ts *tileStore) isChecked(tile uint64) bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return tile < uint64(len(ts.checked)) && ts.checked[tile]
}

// markChecked records a passed crossCheck of a registered tile.
func (ts *tileStore) markChecked(tile uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tile < uint64(len(ts.checked)) {
		ts.checked[tile] = true
	}
}

// rootsImage copies the registered tile roots for a snapshot.
func (ts *tileStore) rootsImage() [][32]byte {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([][32]byte, len(ts.roots))
	for i, r := range ts.roots {
		out[i] = [32]byte(r)
	}
	return out
}

// install sets the sealed-tile roots at recovery time and loads each
// tile's blooms from its index file. The blooms must be resident before
// the first submission (they are the sealed half of the dedupe index),
// so a tile whose index cannot be read or validated fails Open loudly.
// Each index file is read and fully decoded, every check of decodeIndex
// included, but only its blooms are kept: nothing goes into the page
// cache, which holds what reads ask for. Leaf and hash files are not
// opened here — Open stays O(index files) — so every installed tile
// starts unchecked and is cross-checked by its first offsets-page build.
func (ts *tileStore) install(roots [][32]byte) error {
	ts.mu.Lock()
	ts.roots = make([]merkle.Hash, len(roots))
	for i, r := range roots {
		ts.roots[i] = merkle.Hash(r)
	}
	ts.ids, ts.leaves = storage.NewSlicedBlooms(int(ts.span)), storage.NewSlicedBlooms(int(ts.span))
	ts.checked = make([]bool, len(roots))
	ts.mu.Unlock()
	for tile := uint64(0); tile < uint64(len(roots)); tile++ {
		data, err := ts.read(tile, storage.TileExtIndex)
		var ix *storage.TileIndex
		if err == nil {
			ix, err = ts.decodeIndex(tile, data)
		}
		if err != nil {
			return fmt.Errorf("loading sealed tile %d index: %w", tile, err)
		}
		ts.mu.Lock()
		ts.ids.Add(tile, ix.IDBloom)
		ts.leaves.Add(tile, ix.LeafBloom)
		ts.mu.Unlock()
	}
	return nil
}

// read reads one tile file from disk. IO failures wrap ErrPersistence
// (the 503 class — the tile should exist).
func (ts *tileStore) read(tile uint64, ext string) ([]byte, error) {
	data, err := ts.st.ReadTile(tile, ext)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	return data, nil
}

// load runs one tile file through the page cache: read, then decode
// into the cached page and its byte charge. The decoders validate as
// they go; their failures stay storage.ErrCorrupt.
func (ts *tileStore) load(kind uint8, tile uint64, ext string, decode func([]byte) (v any, charge int64, err error)) (any, error) {
	return ts.cache.Get(storage.PageKey{Kind: kind, Tile: tile}, func() (any, int64, error) {
		data, err := ts.read(tile, ext)
		if err != nil {
			return nil, 0, err
		}
		return decode(data)
	})
}

// labelErr reports a tile file whose header names another tile or span.
func (ts *tileStore) labelErr(tile uint64, ext string, gotTile, gotSpan uint64) error {
	if gotTile == tile && gotSpan == ts.span {
		return nil
	}
	return fmt.Errorf("%w: tile %d.%s labeled (%d, span %d)", storage.ErrCorrupt, tile, ext, gotTile, gotSpan)
}

// decodeHash decodes and validates one tile's .hash file. The decoder
// proves the file internally consistent (every parent recomputed from
// its children); pinning the recomputed root to root — the subtree root
// the tree committed to — extends that proof to every node the tile
// holds.
func (ts *tileStore) decodeHash(tile uint64, root merkle.Hash, data []byte) (*storage.HashTile, error) {
	ht, err := storage.DecodeHashTile(data)
	if err != nil {
		return nil, err
	}
	if err := ts.labelErr(tile, storage.TileExtHash, ht.Tile, ht.Span); err != nil {
		return nil, err
	}
	if merkle.Hash(ht.Root()) != root {
		return nil, fmt.Errorf("%w: tile %d root does not match the sealed tree", storage.ErrCorrupt, tile)
	}
	return ht, nil
}

// decodeLeaf decodes and validates one tile's whole .leaf file: per-record
// CRC32C and strict framing (DecodeLeafTile), the tile/span label, and
// that each record parses as a MerkleTreeLeaf (checkLeaves).
func (ts *tileStore) decodeLeaf(tile uint64, data []byte) (*storage.LeafTile, error) {
	lt, err := storage.DecodeLeafTile(data)
	if err != nil {
		return nil, err
	}
	if err := ts.labelErr(tile, storage.TileExtLeaf, lt.Tile, lt.Span); err != nil {
		return nil, err
	}
	if err := checkLeaves(tile*ts.span, lt.Leaves); err != nil {
		return nil, err
	}
	return lt, nil
}

// checkLeaves requires each of entries first, first+1, … to parse as a
// MerkleTreeLeaf, failing as parseLeaves does. The parse goes into one
// throwaway Entry: it is the syntax check of the readers that build no
// entries, the offsets-page build and the get-entries handler.
func checkLeaves(first uint64, leaves [][]byte) error {
	var e Entry
	for i, leaf := range leaves {
		e = Entry{}
		if err := e.parseLeaf(leaf); err != nil {
			return fmt.Errorf("%w: entry %d: %v", storage.ErrCorrupt, first+uint64(i), err)
		}
	}
	return nil
}

// decodeIndex decodes and validates one tile's .idx file.
func (ts *tileStore) decodeIndex(tile uint64, data []byte) (*storage.TileIndex, error) {
	ix, err := storage.DecodeTileIndex(data)
	if err != nil {
		return nil, err
	}
	if err := ts.labelErr(tile, storage.TileExtIndex, ix.Tile, ix.Span); err != nil {
		return nil, err
	}
	return ix, nil
}

// hashPage is a cached hash tile: its Merkle levels, root-pinned, and
// its leaf hashes as sorted lookup keys (leafKeys), which is how
// get-proof-by-hash finds a leaf in the tile (find).
type hashPage struct {
	*storage.HashTile
	keys []uint64
}

// leafKeys returns one key per leaf hash of a tile (span of them, a
// power of two), sorted: the hash's first 8 bytes read big-endian, with
// the low log2(span) bits replaced by the leaf's position in the tile. At span 1024 that is a 54-bit
// hash prefix and a 10-bit position, 8 bytes a leaf. The keys sort as
// plain integers, one slices.Sort, several times faster than sorting the
// 32-byte hashes; a prefix shared by two leaves only costs find a second
// full-hash compare.
func leafKeys(leaves [][32]byte) []uint64 {
	mask := uint64(len(leaves) - 1)
	keys := make([]uint64, len(leaves))
	for pos, h := range leaves {
		keys[pos] = binary.BigEndian.Uint64(h[:8])&^mask | uint64(pos)
	}
	slices.Sort(keys)
	return keys
}

// find returns the position in the tile of the leaf whose hash is h.
// Each key sharing h's prefix names a candidate position, and only a
// leaf whose full 32-byte hash equals h matches.
func (p *hashPage) find(h [32]byte) (uint64, bool) {
	mask := uint64(len(p.keys) - 1)
	prefix := binary.BigEndian.Uint64(h[:8]) &^ mask
	i, _ := slices.BinarySearch(p.keys, prefix)
	for ; i < len(p.keys) && p.keys[i]&^mask == prefix; i++ {
		if pos := p.keys[i] & mask; p.Levels[0][pos] == h {
			return pos, true
		}
	}
	return 0, false
}

// hashTile pages in one registered tile's Merkle levels, root-pinned to
// the root registered at seal time, so every node served to a proof is
// covered, and the leaf keys built from them. The page is charged its
// file bytes plus its keys.
func (ts *tileStore) hashTile(tile uint64) (*hashPage, error) {
	root, ok := ts.rootAt(tile)
	if !ok {
		return nil, fmt.Errorf("ctlog: hash tile %d is not sealed", tile)
	}
	v, err := ts.load(pageKindHash, tile, storage.TileExtHash, func(data []byte) (any, int64, error) {
		ht, err := ts.decodeHash(tile, root, data)
		if err != nil {
			return nil, 0, err
		}
		p := &hashPage{HashTile: ht, keys: leafKeys(ht.Levels[0])}
		return p, int64(len(data)) + 8*int64(len(p.keys)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*hashPage), nil
}

// leafOffsets pages in one registered tile's offsets page: where each
// record of its .leaf file starts, plus the file's end ((span+1) × 4
// bytes, charged as such). It is never asked for a tile the seal has
// not registered (the seal verifies straight from disk). The page is
// built from one read of the whole file, which must pass decodeLeaf —
// what the leaf file can say about itself. What only the tree can say —
// that these are the leaves it committed to — is crossCheck, which runs
// on the first build for a tile installed by Open and not again (a tile
// this process sealed is trusted from its seal's byte-compare
// read-back): the files are immutable, so repeating it on every build
// would cost a hash-tile page-in and a SHA-256 per leaf to learn
// nothing new. A failed check leaves the tile unchecked and caches
// nothing, so the next read fails the same way. Concurrent first
// touches may both check; none serves before a check has passed.
func (ts *tileStore) leafOffsets(tile uint64) ([]uint32, error) {
	v, err := ts.load(pageKindOffsets, tile, storage.TileExtLeaf, func(data []byte) (any, int64, error) {
		lt, err := ts.decodeLeaf(tile, data)
		if err != nil {
			return nil, 0, err
		}
		if !ts.isChecked(tile) {
			ht, err := ts.hashTile(tile)
			if err != nil {
				return nil, 0, err
			}
			if err := crossCheck(lt, ht.HashTile); err != nil {
				return nil, 0, err
			}
			ts.markChecked(tile)
		}
		offs, err := storage.LeafTileOffsets(lt)
		return offs, 4 * int64(len(offs)), err
	})
	if err != nil {
		return nil, err
	}
	return v.([]uint32), nil
}

// leafPage is one sealed read: the .leaf file's header and the records
// read, in buf, and the records' leaves, which alias buf. The handler's
// pages come from leafPagePool and go back once written; the other
// readers return entries that alias buf, so each read gets a page of
// its own.
type leafPage struct {
	buf    []byte
	leaves [][]byte
}

// readLeaves reads entries [lo, hi) of one registered tile (positions
// in the tile, lo < hi ≤ span) into pg: one ranged read of the .leaf
// file's header and the records' bytes, located by the tile's offsets
// page (leafOffsets) and checked on that read — label, framing, CRC32C,
// record type and exact count (storage.Store.ReadLeafRange). The leaf
// syntax check is the caller's: the readers that return entries parse
// them (parseLeaves), and the get-entries handler, which parses none,
// runs checkLeaves. Only the bytes served are checked, so damage
// elsewhere in the tile surfaces when that record is read, not on
// every read of the tile. A file that ends early is storage.ErrCorrupt,
// like every failed check; other read failures are ErrPersistence.
func (ts *tileStore) readLeaves(tile, lo, hi uint64, pg *leafPage) error {
	offs, err := ts.leafOffsets(tile)
	if err != nil {
		return err
	}
	pg.buf, pg.leaves, err = ts.st.ReadLeafRange(tile, ts.span, offs, int(lo), int(hi), pg.buf, pg.leaves)
	if errors.Is(err, storage.ErrCorrupt) {
		return err
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	ts.leafReads.Add(1)
	ts.leafReadBytes.Add(uint64(len(pg.buf)))
	return nil
}

// crossCheck ties a decoded leaf tile to the tree: every leaf must hash
// to the leaf level of ht, a hash tile its decoder has already pinned
// to the tree's root for the tile. This is the check a CRC cannot make:
// a well-framed leaf file holding the wrong leaves. Its one caller is
// leafOffsets, on the first build for a tile installed by Open.
func crossCheck(lt *storage.LeafTile, ht *storage.HashTile) error {
	for i, leaf := range lt.Leaves {
		if [32]byte(merkle.HashLeaf(leaf)) != ht.Levels[0][i] {
			return fmt.Errorf("%w: tile %d entry %d does not hash to the sealed leaf hash", storage.ErrCorrupt, lt.Tile, i)
		}
	}
	return nil
}

// idRows pages in one tile's identity rows: its .idx file, decoded and
// validated whole, of which the page keeps the identity rows only,
// charged 40 bytes a row. The leaf rows have no reader (the leaf-hash
// lookup searches the hash page), so they are not kept.
func (ts *tileStore) idRows(tile uint64) ([]storage.IndexRow, error) {
	v, err := ts.load(pageKindIndex, tile, storage.TileExtIndex, func(data []byte) (any, int64, error) {
		ix, err := ts.decodeIndex(tile, data)
		if err != nil {
			return nil, 0, err
		}
		return ix.ID, 40 * int64(len(ix.ID)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]storage.IndexRow), nil
}

// tileImages are one tile's three encoded files, as the seal hands them
// to Store.WriteTile, and the buffer verify reads them back through (a
// seal worker's; nil reads through a new one).
type tileImages struct{ leaf, hash, index, readBuf []byte }

// verify is the seal's read-back: it reads a freshly written tile's
// three files straight from disk and requires each to equal, byte for
// byte and in length, the image the seal wrote (Store.TileEquals,
// through im.readBuf). A differing file is storage.ErrCorrupt, an
// unreadable or missing one ErrPersistence; both name the tile and
// file. That is all a decode and crossCheck could prove here: the seal
// built the hash tile from the entries' stamped leaf hashes and pinned
// its root to the tree's subtree root before writing, and each stamped
// leaf hash is HashLeaf of the very leaf bytes the leaf image encodes
// (add and recovery's stageLeaf both stamp it so), so bytes equal to
// the images are the leaves and nodes the tree committed to. It reads
// what is durable every time it is called, and installs nothing in the
// page cache (a write-only log does not fill its cache with pages
// nobody read). Seal workers call it concurrently, each on its own tile
// and buffer.
func (ts *tileStore) verify(tile uint64, im tileImages) error {
	for _, f := range []struct {
		ext   string
		image []byte
	}{{storage.TileExtHash, im.hash}, {storage.TileExtLeaf, im.leaf}, {storage.TileExtIndex, im.index}} {
		same, err := ts.st.TileEquals(tile, f.ext, f.image, im.readBuf)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrPersistence, err)
		}
		if !same {
			return fmt.Errorf("%w: tile %d.%s on disk differs from the bytes the seal wrote", storage.ErrCorrupt, tile, f.ext)
		}
	}
	return nil
}

// Node implements merkle.NodeSource: the hash of the perfect subtree at
// (level, index) for levels the tree has pruned, served from the hash
// tile that contains it. level < log2(span) always (the spine above
// stays in RAM), so the node maps into exactly one tile.
func (ts *tileStore) Node(level int, index uint64) (merkle.Hash, error) {
	shift := ts.tlvl - uint(level)
	tile := index >> shift
	ht, err := ts.hashTile(tile)
	if err != nil {
		return merkle.Hash{}, err
	}
	return merkle.Hash(ht.Levels[level][index-tile<<shift]), nil
}

// probe returns the sealed tiles in [from, to) whose bloom reports a
// possible hit for h. which selects the id or leaf bloom.
func (ts *tileStore) probe(h merkle.Hash, which int, from, to uint64) []uint64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if which == storage.TileIndexLeaf {
		return ts.leaves.Probe([32]byte(h), from, to)
	}
	return ts.ids.Probe([32]byte(h), from, to)
}

// lookupID searches sealed tiles [from, to) for an entry with the given
// identity hash: bloom probe first, then the binary-searched identity
// rows of each candidate, then the entry itself, read alone (readLeaves) and
// parsed; the entry aliases a buffer of its own. Returns nil when not
// present. It reads the tile directly rather than through
// publishedState.leafRange: the seal-race re-probe asks about tiles
// registered before the published state routes to them.
func (ts *tileStore) lookupID(h merkle.Hash, from, to uint64) (*Entry, error) {
	for _, tile := range ts.probe(h, storage.TileIndexID, from, to) {
		rows, err := ts.idRows(tile)
		if err != nil {
			return nil, err
		}
		idx, ok := storage.SearchIndexRows(rows, [32]byte(h))
		if !ok {
			continue // bloom false positive
		}
		var pg leafPage
		if err := ts.readLeaves(idx/ts.span, idx%ts.span, idx%ts.span+1, &pg); err != nil {
			return nil, err
		}
		ents, err := parseLeaves(idx, pg.leaves)
		if err != nil {
			return nil, err
		}
		return ents[0], nil
	}
	return nil, nil
}

// lookupLeafIndex searches every sealed tile for a Merkle leaf hash and
// returns its entry index: leaf-bloom probe first, then the leaf keys of
// each candidate's hash page — the page the inclusion proof reads next,
// so a proof by hash pages in no file but the .hash. The index comes
// from root-pinned hash data, not from the .idx file's leaf rows, which
// only their CRC and order vouch for.
func (ts *tileStore) lookupLeafIndex(h merkle.Hash) (uint64, bool, error) {
	for _, tile := range ts.probe(h, storage.TileIndexLeaf, 0, ^uint64(0)) {
		p, err := ts.hashTile(tile)
		if err != nil {
			return 0, false, err
		}
		if pos, ok := p.find([32]byte(h)); ok {
			return tile*ts.span + pos, true, nil
		}
	}
	return 0, false, nil
}

// sealTilesLocked seals every complete tile covered by the just-published
// STH — write and install, with seqMu held and the staging mutex free —
// and returns the entries it moved out of the resident tail. Sealing
// never changes tree bytes, only where they live, so trajectories stay
// byte-identical to an in-memory run. An error installs nothing, not
// even the tiles written before the failing one (orphan tile files on
// disk are rewritten by the next seal).
func (l *Log) sealTilesLocked() ([]*Entry, error) {
	if l.tiles == nil {
		return nil, nil
	}
	span := l.tiles.span
	target := l.published.TreeHead.TreeSize / span * span
	if target <= l.tailStart {
		return nil, nil
	}
	defer func(start time.Time) { l.sealNanos.Add(uint64(time.Since(start))) }(time.Now())
	first := l.tailStart / span
	roots := make([]merkle.Hash, (target-l.tailStart)/span)
	for i := range roots {
		root, err := l.tree.TileRoot(first + uint64(i))
		if err != nil {
			return nil, err
		}
		roots[i] = root
	}
	ixs, err := l.writeTilesLocked(first, roots)
	if err != nil {
		return nil, err
	}
	if err := l.store.SyncTiles(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	for i, ix := range ixs {
		if err := l.tiles.register(first+uint64(i), roots[i], ix); err != nil {
			return nil, err
		}
	}
	l.sealStage("tiles-written")
	// Install: prune the tree below the tile level, drop the sealed
	// entries from the tail and the proof map. Readers holding the
	// published view keep the old tail slice alive until the next
	// publish; new lookups go through the tiles.
	if err := l.tree.Seal(target); err != nil {
		return nil, fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
	}
	n := target - l.tailStart
	sealed := l.entries[:n]
	for _, e := range sealed {
		// The leafIndex delete runs only after the entry's tile registered
		// above, so a lock-free proof reader that misses
		// the map is guaranteed to find the hash through the tile blooms.
		l.byLeafHash.delete(e.leafHash)
	}
	l.entries = append([]*Entry(nil), l.entries[n:]...)
	l.tailStart = target
	// Re-store the published view over the new tail so reads route
	// through the tiles immediately (and the old full-tail backing array
	// becomes collectable once current readers drain). Same head — only
	// where its entries live changed; the fresh proof view delegates the
	// newly sealed range to the tiles instead of the pruned RAM levels.
	if err := l.storePublishedLocked(); err != nil {
		return nil, err
	}
	return sealed, nil
}

// compactLocked is the seal's third phase (see the top of this file),
// under both locks. The sealed identities leave the dedupe map only now,
// after their tiles registered, so add's locked re-probe of newly sealed
// tiles stays sound. An error leaves the seal installed in RAM; the
// sticky store failure stops further writes, and a restart recovers the
// pre-seal state from the intact WAL.
func (l *Log) compactLocked(sealed []*Entry) error {
	for _, e := range sealed {
		delete(l.dedupe, e.idHash)
	}
	if err := l.writeSnapshotLocked(); err != nil {
		return err
	}
	l.sealStage("snapshot-pre-truncate")
	if err := l.store.ResetWAL(); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	l.sealStage("wal-truncated")
	if err := l.writeSnapshotLocked(); err != nil {
		return err
	}
	l.sealStage("snapshot-anchored")
	return nil
}

// sealWorker is one of the seal's concurrent workers. Its buffers live
// for one seal: a worker reuses them from tile to tile, and an idle log
// keeps none.
type sealWorker struct {
	leafImage []byte // the tile's encoded leaf file
	readBuf   []byte // verify's read-back buffer, verifyChunk bytes
}

// writeTilesLocked is the seal's write phase: it seals tiles first,
// first+1, ... (one per root) on min(len(roots), GOMAXPROCS) workers
// and returns the index each tile's worker built, in tile order. After
// a failure the workers take no further tile, and the error returned is
// that of the lowest failed tile.
func (l *Log) writeTilesLocked(first uint64, roots []merkle.Hash) ([]*storage.TileIndex, error) {
	ixs := make([]*storage.TileIndex, len(roots))
	errs := make([]error, len(roots))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	workers := min(len(roots), runtime.GOMAXPROCS(0))
	l.sealWorkers = max(l.sealWorkers, workers)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &sealWorker{readBuf: make([]byte, verifyChunk)}
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(roots) {
					return
				}
				if ixs[i], errs[i] = l.sealTile(w, first+uint64(i), roots[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ixs, nil
}

// sealTile is one worker's seal of one tile: it builds the tile's three
// files from the entries' stamped leaf bytes and leaf hashes, pins the
// hash tile's root to want (the tree's root for the tile), writes them
// and verifies them from disk. It returns the index it built, which
// registers once the whole seal is durable. Workers of one seal read
// the resident tail and write only their own buffers and tile files.
func (l *Log) sealTile(w *sealWorker, tile uint64, want merkle.Hash) (*storage.TileIndex, error) {
	span := l.tiles.span
	base := tile*span - l.tailStart
	ents := l.entries[base : base+span]
	leaves := make([][]byte, span)
	leafHashes := make([][32]byte, span)
	idHashes := make([][32]byte, span)
	for i, e := range ents {
		leaf, err := e.leafBytes()
		if err != nil {
			return nil, err
		}
		leaves[i] = leaf
		leafHashes[i] = [32]byte(e.leafHash)
		idHashes[i] = [32]byte(e.idHash)
	}
	ht, err := storage.BuildHashTile(tile, leafHashes)
	if err != nil {
		return nil, err
	}
	if merkle.Hash(ht.Root()) != want {
		return nil, fmt.Errorf("%w: tile %d built root differs from the live tree", storage.ErrCorrupt, tile)
	}
	ix := storage.BuildTileIndex(tile, tile*span, idHashes, leafHashes)
	w.leafImage = storage.EncodeLeafTile(w.leafImage[:0], &storage.LeafTile{Tile: tile, Span: span, Leaves: leaves})
	im := tileImages{
		leaf:    w.leafImage,
		hash:    storage.EncodeHashTile(ht),
		index:   storage.EncodeTileIndex(ix),
		readBuf: w.readBuf,
	}
	if err := l.store.WriteTile(tile, im.leaf, im.hash, im.index); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	// Verify what is on disk before anything registers: read the files
	// back (a retried seal re-reads the bytes it just rewrote — nothing
	// is cached for an unregistered tile) and compare them with the
	// images.
	if err := l.tiles.verify(tile, im); err != nil {
		return nil, err
	}
	return ix, nil
}

// sealStage invokes the test-only seal lifecycle hook.
func (l *Log) sealStage(stage string) {
	if l.sealStageHook != nil {
		l.sealStageHook(stage)
	}
}

// CacheStats reports the tile page cache's counters; zero for in-memory
// logs.
func (l *Log) CacheStats() storage.PageCacheStats {
	if l.tiles == nil {
		return storage.PageCacheStats{}
	}
	return l.tiles.cache.Stats()
}

// TiledThrough reports how many entries live in sealed tiles, as of the
// published state.
func (l *Log) TiledThrough() uint64 {
	return l.pub.Load().tailStart
}
