package ctlog

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// sealedLeafHashes fills a fresh span-sized durable log in dir with n
// entries, publishes, closes it, and returns every entry's leaf hash in
// index order.
func sealedLeafHashes(t *testing.T, dir string, span, n int) []merkle.Hash {
	t.Helper()
	l, clk := newDurableLog(t, dir, Config{TileSpan: span})
	fillAndPublish(t, l, clk, "pages", n)
	var hashes []merkle.Hash
	err := l.StreamEntries(0, uint64(n)-1, func(e *Entry) error {
		h, err := e.LeafHash()
		hashes = append(hashes, h)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return hashes
}

// TestTiledOpenCachesNothing pins that Open reads every sealed tile's
// index for its blooms and keeps nothing else: the page cache of a
// freshly opened log with four sealed tiles is untouched, not one page
// in it, so the cache holds only pages that reads ask for.
func TestTiledOpenCachesNothing(t *testing.T) {
	dir := t.TempDir()
	sealedLeafHashes(t, dir, 4, 18)
	l, _ := newDurableLog(t, dir, Config{TileSpan: 4})
	defer l.Close()
	if got := l.TiledThrough(); got != 16 {
		t.Fatalf("tiled through %d after reopen, want 16", got)
	}
	if s := l.CacheStats(); s != (storage.PageCacheStats{}) {
		t.Fatalf("Open left the page cache at %+v, want it untouched", s)
	}
}

// TestTiledProofByHashMatchesTree is the differential test of the
// sealed leaf-hash lookup. A span-8 log of 7 sealed tiles and a resident
// tail is reopened under the default budget, a tiny one that holds about
// one hash page (so pages evict between lookups), and a pass-through
// cache. Under each, get-proof-by-hash for every leaf, at the head and
// at a size inside the sealed prefix, must return the leaf's own index
// and exactly the inclusion proof the log's tree gives for it, and a
// leaf beyond the size must be ErrBadRange.
func TestTiledProofByHashMatchesTree(t *testing.T) {
	const span = 8
	const n = 7*span + 5
	dir := t.TempDir()
	hashes := sealedLeafHashes(t, dir, span, n)
	for _, budget := range []struct {
		name  string
		bytes int64
	}{{"default", 0}, {"tiny", 1024}, {"pass-through", -1}} {
		t.Run(budget.name, func(t *testing.T) {
			l, _ := newDurableLog(t, dir, Config{TileSpan: span, PageCacheBytes: budget.bytes})
			defer l.Close()
			if got := l.TiledThrough(); got != 7*span {
				t.Fatalf("tiled through %d, want %d", got, 7*span)
			}
			sth := l.STH()
			tree := l.pub.Load().tree
			for _, size := range []uint64{n, 3*span + 2} {
				for i, lh := range hashes {
					idx, proof, err := l.GetProofByHash(lh, size)
					if uint64(i) >= size {
						if !errors.Is(err, ErrBadRange) {
							t.Fatalf("leaf %d at size %d: err=%v, want ErrBadRange", i, size, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("leaf %d at size %d: %v", i, size, err)
					}
					want, err := tree.InclusionProof(uint64(i), size)
					if err != nil {
						t.Fatal(err)
					}
					if idx != uint64(i) || !sameHashes(proof, want) {
						t.Fatalf("leaf %d at size %d resolved to index %d with a proof of %d hashes, want %d and the tree's %d", i, size, idx, len(proof), i, len(want))
					}
					if size == n {
						if err := verifyInclusionForTest(lh, idx, sth, proof); err != nil {
							t.Fatalf("leaf %d: %v", i, err)
						}
					}
				}
			}
			s := l.CacheStats()
			switch budget.name {
			case "tiny":
				if s.Evictions == 0 {
					t.Fatalf("tiny budget never evicted: %+v", s)
				}
			case "pass-through":
				if s.Pages != 0 || s.Hits != 0 {
					t.Fatalf("pass-through cache retained or hit: %+v", s)
				}
			}
		})
	}
}

// TestTiledProofByHashBloomFalsePositive pins that a leaf-bloom false
// positive costs one hash page-in and nothing else. Over a span-8 log of
// 48 sealed tiles with a pass-through cache (every page-in a counted
// miss), a leaf whose first bloom candidate is another, earlier tile
// must still resolve to its own index with a proof that verifies, after
// paging in exactly the hash pages of the candidates up to its own, and
// its own once more for each of the 3 audit-path nodes below the tile
// level (a pass-through cache keeps no page between two node reads).
// A hash of no leaf whose bloom hits sealed tiles is ErrNotFound after
// paging in exactly each candidate's hash page. With these fixed inputs
// such a leaf and such a hash exist (≈ 0.24 % per tile probed); the
// test fails, rather than passes vacuously, if not.
func TestTiledProofByHashBloomFalsePositive(t *testing.T) {
	const span, tiles = 8, 48
	dir := t.TempDir()
	hashes := sealedLeafHashes(t, dir, span, span*tiles)
	l, _ := newDurableLog(t, dir, Config{TileSpan: span, PageCacheBytes: -1})
	defer l.Close()
	sth := l.STH()
	size := sth.TreeHead.TreeSize
	misses := func(h merkle.Hash) (uint64, []merkle.Hash, uint64, error) {
		before := l.CacheStats().Misses
		idx, proof, err := l.GetProofByHash(h, size)
		return idx, proof, l.CacheStats().Misses - before, err
	}

	found := false
	for i, lh := range hashes {
		own := uint64(i) / span
		cands := l.tiles.probe(lh, storage.TileIndexLeaf, 0, tiles)
		if cands[0] == own {
			continue
		}
		found = true
		want := uint64(3) // the audit path's reads of its own hash page
		for _, c := range cands {
			want++
			if c == own {
				break
			}
		}
		idx, proof, got, err := misses(lh)
		if err != nil || idx != uint64(i) {
			t.Fatalf("leaf %d behind false-positive tiles %v: index %d, err=%v", i, cands, idx, err)
		}
		if err := verifyInclusionForTest(lh, idx, sth, proof); err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("leaf %d behind false-positive tiles %v: %d page-ins, want %d hash page reads", i, cands, got, want)
		}
		break
	}
	if !found {
		t.Fatal("no leaf hit another tile's bloom first; grow the log")
	}

	for i := 0; ; i++ {
		h := merkle.HashLeaf([]byte(fmt.Sprintf("absent-%d", i)))
		cands := l.tiles.probe(h, storage.TileIndexLeaf, 0, tiles)
		if len(cands) == 0 {
			if i == 10000 {
				t.Fatal("no absent hash hit a bloom")
			}
			continue
		}
		_, _, got, err := misses(h)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("absent hash behind false-positive tiles %v: err=%v, want ErrNotFound", cands, err)
		}
		if want := uint64(len(cands)); got != want {
			t.Fatalf("absent hash behind false-positive tiles %v: %d page-ins, want %d", cands, got, want)
		}
		break
	}
}

// TestTiledHashPageFindSharedPrefix drives the hash page's leaf-key
// search on a span-8 tile of made-up leaf hashes. Two pairs of them
// share a key prefix: one pair agrees in its first 8 bytes, the other
// differs only in the bits a key gives to the position. Every leaf must
// be found at its own position, and a hash that shares a prefix with a
// leaf but is none of them must not be found: each candidate is
// confirmed against the full 32-byte hash.
func TestTiledHashPageFindSharedPrefix(t *testing.T) {
	const span = 8
	leaves := make([][32]byte, span)
	for i := range leaves {
		leaves[i] = [32]byte(merkle.HashLeaf([]byte(fmt.Sprintf("leaf-%d", i))))
	}
	copy(leaves[5][:8], leaves[2][:8]) // same first 8 bytes
	copy(leaves[6][:8], leaves[1][:8])
	leaves[6][7] ^= 0x05 // differs only in the low 3 bits (position bits)
	ht, err := storage.BuildHashTile(0, leaves)
	if err != nil {
		t.Fatal(err)
	}
	p := &hashPage{HashTile: ht, keys: leafKeys(ht.Levels[0])}
	for pos, h := range leaves {
		if got, ok := p.find(h); !ok || got != uint64(pos) {
			t.Fatalf("leaf %d found at %d (ok=%v)", pos, got, ok)
		}
	}
	absent := leaves[2]
	absent[31] ^= 1
	if got, ok := p.find(absent); ok {
		t.Fatalf("a hash sharing leaf 2's prefix was found at %d", got)
	}
}

// TestTiledProofByHashIgnoresIndexLeafRows pins where get-proof-by-hash
// takes a sealed leaf's index from: the root-pinned hash tile, not the
// .idx file's leaf rows. Every tile's leaf rows are rewritten to point
// each hash at the next leaf of its tile, with fresh CRCs and their
// order intact, so the file passes every check of Open; every leaf must
// still resolve to the same index and proof as before.
func TestTiledProofByHashIgnoresIndexLeafRows(t *testing.T) {
	const span, tiles = 4, 3
	dir := t.TempDir()
	hashes := sealedLeafHashes(t, dir, span, span*tiles+1)
	answers := func(l *Log) map[merkle.Hash][]merkle.Hash {
		t.Helper()
		size := l.STH().TreeHead.TreeSize
		out := make(map[merkle.Hash][]merkle.Hash)
		for i, lh := range hashes {
			idx, proof, err := l.GetProofByHash(lh, size)
			if err != nil || idx != uint64(i) {
				t.Fatalf("leaf %d resolved to %d, err=%v", i, idx, err)
			}
			out[lh] = proof
		}
		return out
	}
	l, _ := newDurableLog(t, dir, Config{TileSpan: span})
	want := answers(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for tile := uint64(0); tile < tiles; tile++ {
		path := tilePath(dir, tile, storage.TileExtIndex)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := storage.DecodeTileIndex(data)
		if err != nil {
			t.Fatal(err)
		}
		first := tile * span
		for i := range ix.Leaf {
			ix.Leaf[i].Index = first + (ix.Leaf[i].Index-first+1)%span
		}
		if err := os.WriteFile(path, storage.EncodeTileIndex(ix), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, _ = newDurableLog(t, dir, Config{TileSpan: span})
	defer l.Close()
	for lh, proof := range answers(l) {
		if !sameHashes(proof, want[lh]) {
			t.Fatalf("proof for %x changed after the .idx leaf rows were rewritten", lh[:4])
		}
	}
}

// TestTiledDedupeFalsePositiveCachesIDRows pins what a dedupe lookup
// leaves in the cache. A new submission whose identity bloom hits one
// sealed tile of a freshly opened span-8 log (a false positive: it is in
// no tile) pages in that tile's index and caches one page, charged 40 ×
// span: the .idx file's identity rows, sorted, and nothing else. The
// submission is accepted as new.
func TestTiledDedupeFalsePositiveCachesIDRows(t *testing.T) {
	const span, tiles = 8, 8
	dir := t.TempDir()
	sealedLeafHashes(t, dir, span, span*tiles)
	l, _ := newDurableLog(t, dir, Config{TileSpan: span})
	defer l.Close()

	var cert []byte
	var hit uint64
	for i := 0; cert == nil; i++ {
		if i == 100000 {
			t.Fatal("no submission hit exactly one identity bloom")
		}
		c := []byte(fmt.Sprintf("dedupe-fp-%d", i))
		if cands := l.tiles.probe(entryIdentity(sct.X509Entry(c)), storage.TileIndexID, 0, tiles); len(cands) == 1 {
			cert, hit = c, cands[0]
		}
	}
	if _, err := l.AddChain(cert); err != nil {
		t.Fatal(err)
	}
	if got := l.PendingCount(); got != 1 {
		t.Fatalf("a bloom false positive left %d pending entries, want 1 (accepted as new)", got)
	}
	if s := l.CacheStats(); s.Pages != 1 || s.Used != 40*span {
		t.Fatalf("a dedupe false positive left %d pages charged %d bytes, want 1 page charged %d", s.Pages, s.Used, 40*span)
	}
	v, err := l.tiles.cache.Get(storage.PageKey{Kind: pageKindIndex, Tile: hit}, func() (any, int64, error) {
		return nil, 0, fmt.Errorf("tile %d's index page is not cached", hit)
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tilePath(dir, hit, storage.TileExtIndex))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := storage.DecodeTileIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := v.([]storage.IndexRow)
	if !ok || !slices.Equal(rows, ix.ID) {
		t.Fatalf("tile %d's index page holds %T, want its %d identity rows", hit, v, len(ix.ID))
	}
}
