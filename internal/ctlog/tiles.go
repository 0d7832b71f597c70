package ctlog

import (
	"fmt"
	"sync"
	"unsafe"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
)

// Tiled storage. On durable logs, sequenced entries do not stay resident
// forever: once a span-aligned prefix of the tree is covered by a
// published STH, it is sealed into immutable on-disk tiles (leaf bytes,
// Merkle subtree hashes, and a bloom-fronted lookup index per tile — see
// storage/tile.go for the formats) and evicted from RAM. From then on
// get-entries, get-proof-by-hash, and get-consistency are served from
// the tiles through a byte-budget LRU page cache, the dedupe check and
// the leaf-hash lookup for sealed entries go through per-tile blooms +
// binary-searched index files, and — because the snapshot now carries
// the tile roots instead of the sealed entries — the WAL is truncated
// behind the seal. RAM and WAL therefore stay bounded by the mutable
// edge (tail + staged batch + ~4 bloom bytes per sealed entry), plus
// whatever pages reads and dedupe lookups asked for, up to the
// page-cache budget — independent of tree size. Sealing itself leaves
// nothing in the cache.
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
//  1. Write: each tile's three files are written atomically and fsynced,
//     then read back straight from disk — not through the page cache —
//     and re-verified against the in-RAM tree (tileStore.verify: the
//     hash tile's recomputed root must equal the tree's subtree root;
//     the leaf tile must hash to the hash tile's leaf level). That
//     leaf↔hash↔root cross-check is what makes the tile trusted for the
//     rest of the process: later leaf page-ins check CRC, framing and
//     label only (see tileStore.entries). A crash here leaves orphan
//     tile files that the next seal rewrites and re-reads.
//  2. Install: the tile roots + blooms register in the tileStore, the
//     tree prunes its sub-tile levels (merkle.TiledTree.Seal), and the
//     sealed entries leave the tail and the proof map.
//  3. Compact (the only phase under the staging mutex): the sealed
//     identities leave the dedupe map, a snapshot carrying the tile
//     roots and the now-short tail is written at the current WAL offset,
//     the WAL is truncated to its header (fsynced), and a second
//     snapshot re-anchors the cursor at the truncated offset. A crash
//     between the truncate and the second snapshot is the existing
//     adopt-snapshot recovery path: the first snapshot's cursor lies
//     beyond the WAL end, so recovery adopts it and re-anchors, exactly
//     as it does for mid-file WAL corruption.

// Page-cache kinds for the three tile file types.
const (
	pageKindHash  uint8 = 1
	pageKindLeaf  uint8 = 2
	pageKindIndex uint8 = 3
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
	// checked[tile] records that this process has cross-checked the
	// tile's leaf file against its hash tile and registered root: in the
	// seal's verify, or on the first leaf page-in of a tile installed
	// by Open. It is never persisted, so every restart re-earns it.
	checked []bool
}

// entryPinnedBytes is what one parsed entry of a cached leaf page pins
// beside the file bytes its fields alias: its slot in the page's Entry
// slab and in the []*Entry handed to readers. At small certificates that
// is most of the page, and Config.PageCacheBytes is a promise about RAM,
// so leaf pages are charged for it.
const entryPinnedBytes = int64(unsafe.Sizeof(Entry{}) + unsafe.Sizeof((*Entry)(nil)))

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
// verify read from disk; tiles register in order. Its caller is the
// seal, whose verify has just cross-checked the tile's files as they are
// on disk, so the tile registers as checked.
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

// isChecked reports whether the tile's leaf file has passed the
// cross-check in this process. Only entries asks, and only about
// registered tiles: a tile sealed by this process registers checked, a
// tile installed by Open starts unchecked until its first leaf page-in.
func (ts *tileStore) isChecked(tile uint64) bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return tile < uint64(len(ts.checked)) && ts.checked[tile]
}

// markChecked records a passed cross-check of a registered tile.
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
// Leaf and hash files are not opened here — Open stays O(index files) —
// so every installed tile starts unchecked and is cross-checked by its
// first leaf page-in.
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
		ix, err := ts.index(tile)
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

// load runs one tile file through the page cache: read, then decode —
// one of the decodeX functions below, which validate as they go; their
// failures stay storage.ErrCorrupt. The page is charged its file bytes
// (the decoded forms alias or mirror them) plus whatever decode reports
// the parsed page pins beyond them.
func (ts *tileStore) load(kind uint8, tile uint64, ext string, decode func([]byte) (v any, extra int64, err error)) (any, error) {
	return ts.cache.Get(storage.PageKey{Kind: kind, Tile: tile}, func() (any, int64, error) {
		data, err := ts.read(tile, ext)
		if err != nil {
			return nil, 0, err
		}
		v, extra, err := decode(data)
		if err != nil {
			return nil, 0, err
		}
		return v, int64(len(data)) + extra, nil
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

// decodeLeaf decodes and validates one tile's .leaf file: per-record
// CRC32C and strict framing (DecodeLeafTile), the tile/span label, and
// that each record parses as a MerkleTreeLeaf. It returns the decoded
// tile (for crossCheck) and its parsed entries, parsed into one slab —
// not an allocation each: a page lives and dies in the cache as a unit.
// leafHash is not stamped (nothing reads it off a sealed entry;
// LeafHash() computes from fields).
func (ts *tileStore) decodeLeaf(tile uint64, data []byte) (*storage.LeafTile, []*Entry, error) {
	lt, err := storage.DecodeLeafTile(data)
	if err != nil {
		return nil, nil, err
	}
	if err := ts.labelErr(tile, storage.TileExtLeaf, lt.Tile, lt.Span); err != nil {
		return nil, nil, err
	}
	slab := make([]Entry, len(lt.Leaves))
	ents := make([]*Entry, len(lt.Leaves))
	for i, leaf := range lt.Leaves {
		e := &slab[i]
		if err := e.parseLeaf(leaf); err != nil {
			return nil, nil, fmt.Errorf("%w: tile %d entry %d: %v", storage.ErrCorrupt, tile, i, err)
		}
		e.Index = tile*ts.span + uint64(i)
		ents[i] = e
	}
	return lt, ents, nil
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

// hashTile pages in one registered tile's Merkle levels, root-pinned to
// the root registered at seal time, so every node served to a proof is
// covered.
func (ts *tileStore) hashTile(tile uint64) (*storage.HashTile, error) {
	root, ok := ts.rootAt(tile)
	if !ok {
		return nil, fmt.Errorf("ctlog: hash tile %d is not sealed", tile)
	}
	v, err := ts.load(pageKindHash, tile, storage.TileExtHash, func(data []byte) (any, int64, error) {
		ht, err := ts.decodeHash(tile, root, data)
		return ht, 0, err
	})
	if err != nil {
		return nil, err
	}
	return v.(*storage.HashTile), nil
}

// entries pages in one registered tile's parsed entries; it is never
// asked for a tile the seal has not registered (the seal verifies
// straight from disk). Every page-in runs decodeLeaf — what the leaf
// file can say about itself. What only the tree can say — that these
// are the leaves it committed to — is crossCheck, which runs on the
// first page-in of a tile installed by Open and not again (tiles this
// process sealed were cross-checked by verify): the files are
// immutable, so repeating it on every cache miss would cost a hash-tile
// page-in and a SHA-256 per leaf to learn nothing new. A failed check
// leaves the tile unchecked, so the next read fails the same way.
// Concurrent first touches may both check; none serves before a check
// has passed. Returned entries are immutable and shared by every reader
// of the cached page.
func (ts *tileStore) entries(tile uint64) ([]*Entry, error) {
	v, err := ts.load(pageKindLeaf, tile, storage.TileExtLeaf, func(data []byte) (any, int64, error) {
		lt, ents, err := ts.decodeLeaf(tile, data)
		if err != nil {
			return nil, 0, err
		}
		if !ts.isChecked(tile) {
			ht, err := ts.hashTile(tile)
			if err != nil {
				return nil, 0, err
			}
			if err := crossCheck(lt, ht); err != nil {
				return nil, 0, err
			}
			ts.markChecked(tile)
		}
		return ents, int64(len(ents)) * entryPinnedBytes, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]*Entry), nil
}

// crossCheck ties a decoded leaf tile to the tree: every leaf must hash
// to the leaf level of ht, a hash tile its decoder has already pinned
// to the tree's root for the tile. This is the check a CRC cannot make:
// a well-framed leaf file holding the wrong leaves. Its two callers are
// the seal's verify and the first leaf page-in of a tile after Open.
func crossCheck(lt *storage.LeafTile, ht *storage.HashTile) error {
	for i, leaf := range lt.Leaves {
		if [32]byte(merkle.HashLeaf(leaf)) != ht.Levels[0][i] {
			return fmt.Errorf("%w: tile %d entry %d does not hash to the sealed leaf hash", storage.ErrCorrupt, lt.Tile, i)
		}
	}
	return nil
}

// index pages in one tile's lookup index.
func (ts *tileStore) index(tile uint64) (*storage.TileIndex, error) {
	v, err := ts.load(pageKindIndex, tile, storage.TileExtIndex, func(data []byte) (any, int64, error) {
		ix, err := ts.decodeIndex(tile, data)
		return ix, 0, err
	})
	if err != nil {
		return nil, err
	}
	return v.(*storage.TileIndex), nil
}

// verify is the seal's read-back: it reads a freshly written tile's
// three files straight from disk and checks them against root, the
// tree's subtree root for the tile, with the same decoders a page-in
// runs plus crossCheck — so it verifies what is durable, every time it
// is called, and installs nothing in the page cache (a write-only log
// does not fill its cache with pages nobody read). It returns the
// decoded index, whose blooms register slices in.
func (ts *tileStore) verify(tile uint64, root merkle.Hash) (*storage.TileIndex, error) {
	data, err := ts.read(tile, storage.TileExtHash)
	if err != nil {
		return nil, err
	}
	ht, err := ts.decodeHash(tile, root, data)
	if err != nil {
		return nil, err
	}
	if data, err = ts.read(tile, storage.TileExtLeaf); err != nil {
		return nil, err
	}
	lt, _, err := ts.decodeLeaf(tile, data)
	if err != nil {
		return nil, err
	}
	if err := crossCheck(lt, ht); err != nil {
		return nil, err
	}
	if data, err = ts.read(tile, storage.TileExtIndex); err != nil {
		return nil, err
	}
	return ts.decodeIndex(tile, data)
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
// identity hash: bloom probe first, then the binary-searched index file
// of each candidate, then the entry itself from its leaf tile. Returns
// nil when not present.
func (ts *tileStore) lookupID(h merkle.Hash, from, to uint64) (*Entry, error) {
	for _, tile := range ts.probe(h, storage.TileIndexID, from, to) {
		ix, err := ts.index(tile)
		if err != nil {
			return nil, err
		}
		idx, ok := storage.SearchIndexRows(ix.ID, [32]byte(h))
		if !ok {
			continue // bloom false positive
		}
		ents, err := ts.entries(idx / ts.span)
		if err != nil {
			return nil, err
		}
		return ents[idx%ts.span], nil
	}
	return nil, nil
}

// lookupLeafIndex searches every sealed tile for a Merkle leaf hash and
// returns its entry index.
func (ts *tileStore) lookupLeafIndex(h merkle.Hash) (uint64, bool, error) {
	for _, tile := range ts.probe(h, storage.TileIndexLeaf, 0, ^uint64(0)) {
		ix, err := ts.index(tile)
		if err != nil {
			return 0, false, err
		}
		if idx, ok := storage.SearchIndexRows(ix.Leaf, [32]byte(h)); ok {
			return idx, true, nil
		}
	}
	return 0, false, nil
}

// sealTilesLocked seals every complete tile covered by the just-published
// STH — write and install, with seqMu held and the staging mutex free —
// and returns the entries it moved out of the resident tail. Sealing
// never changes tree bytes, only where they live, so trajectories stay
// byte-identical to an in-memory run. An error installs nothing (orphan
// tile files on disk are rewritten by the next seal).
func (l *Log) sealTilesLocked() ([]*Entry, error) {
	if l.tiles == nil {
		return nil, nil
	}
	span := l.tiles.span
	target := l.published.TreeHead.TreeSize / span * span
	if target <= l.tailStart {
		return nil, nil
	}
	first := l.tailStart / span
	for tile := first; tile*span < target; tile++ {
		if err := l.sealTileLocked(tile); err != nil {
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
		// in sealTileLocked above, so a lock-free proof reader that misses
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

// sealTileLocked writes, fsyncs, re-verifies from disk, and registers
// one tile.
func (l *Log) sealTileLocked(tile uint64) error {
	span := l.tiles.span
	base := tile*span - l.tailStart
	ents := l.entries[base : base+span]
	leaves := make([][]byte, span)
	leafHashes := make([][32]byte, span)
	idHashes := make([][32]byte, span)
	for i, e := range ents {
		leaf, err := e.leafBytes()
		if err != nil {
			return err
		}
		leaves[i] = leaf
		leafHashes[i] = [32]byte(e.leafHash)
		idHashes[i] = [32]byte(e.idHash)
	}
	ht, err := storage.BuildHashTile(tile, leafHashes)
	if err != nil {
		return err
	}
	want, err := l.tree.TileRoot(tile)
	if err != nil {
		return err
	}
	if merkle.Hash(ht.Root()) != want {
		return fmt.Errorf("%w: tile %d built root differs from the live tree", storage.ErrCorrupt, tile)
	}
	lt := &storage.LeafTile{Tile: tile, Span: span, Leaves: leaves}
	ix := storage.BuildTileIndex(tile, tile*span, idHashes, leafHashes)
	if err := l.store.WriteTile(tile, storage.EncodeLeafTile(lt), storage.EncodeHashTile(ht), storage.EncodeTileIndex(ix)); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	// Verify what is actually durable before the tree prunes anything:
	// read the files back from disk (a retried seal re-reads the bytes it
	// just rewrote — nothing is cached for an unregistered tile), tie the
	// hash tile to the tree's root and every leaf to the hash tile; only
	// then does the tile register, as checked.
	vix, err := l.tiles.verify(tile, want)
	if err != nil {
		return err
	}
	return l.tiles.register(tile, want, vix)
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
