package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ctrise/internal/merkle"
)

// tileTestLeaves builds span deterministic fake MerkleTreeLeaf byte
// strings and their hashes.
func tileTestLeaves(span int) (leaves [][]byte, leafHashes, idHashes [][32]byte) {
	for i := 0; i < span; i++ {
		leaf := []byte(fmt.Sprintf("\x00\x00tile-leaf-%03d", i))
		leaves = append(leaves, leaf)
		leafHashes = append(leafHashes, [32]byte(merkle.HashLeaf(leaf)))
		idHashes = append(idHashes, sha256.Sum256(leaf))
	}
	return
}

func TestLeafTileRoundTrip(t *testing.T) {
	leaves, _, _ := tileTestLeaves(8)
	tile := &LeafTile{Tile: 42, Span: 8, Leaves: leaves}
	enc := EncodeLeafTile(tile)
	dec, err := DecodeLeafTile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tile != 42 || dec.Span != 8 || !reflect.DeepEqual(dec.Leaves, leaves) {
		t.Fatal("leaf tile round trip mismatch")
	}
	if got := EncodeLeafTile(dec); !bytes.Equal(got, enc) {
		t.Fatal("leaf tile encoding is not canonical")
	}
	// A leaf tile must hold exactly span entries.
	short := &LeafTile{Tile: 42, Span: 8, Leaves: leaves[:7]}
	if _, err := DecodeLeafTile(EncodeLeafTile(short)); err == nil {
		t.Fatal("leaf tile with missing entry decoded")
	}
}

func TestHashTileBuildVerifyAndCorruption(t *testing.T) {
	const span = 8
	leaves, leafHashes, _ := tileTestLeaves(span)
	ht, err := BuildHashTile(3, leafHashes)
	if err != nil {
		t.Fatal(err)
	}
	// The tile root must equal the reference tree's subtree root.
	ref := merkle.New()
	for _, l := range leaves {
		ref.AppendData(l)
	}
	if want := ref.Root(); ht.Root() != [32]byte(want) {
		t.Fatal("hash tile root differs from reference merkle root")
	}
	enc := EncodeHashTile(ht)
	dec, err := DecodeHashTile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != ht.Root() || len(dec.Levels) != len(ht.Levels) {
		t.Fatal("hash tile round trip mismatch")
	}
	if got := EncodeHashTile(dec); !bytes.Equal(got, enc) {
		t.Fatal("hash tile encoding is not canonical")
	}
	// Every single flipped byte anywhere in the image must be detected:
	// either by a record CRC or by the parent-from-children recompute.
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x01
		if _, err := DecodeHashTile(mut); err == nil {
			t.Fatalf("flipped byte at offset %d went undetected", off)
		}
	}
	if _, err := BuildHashTile(0, leafHashes[:3]); err == nil {
		t.Fatal("BuildHashTile accepted a non-power-of-two span")
	}
}

func TestTileIndexSearchAndValidation(t *testing.T) {
	const span = 16
	_, leafHashes, idHashes := tileTestLeaves(span)
	ix := BuildTileIndex(7, 7*span, idHashes, leafHashes)
	enc := EncodeTileIndex(ix)
	dec, err := DecodeTileIndex(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeTileIndex(dec); !bytes.Equal(got, enc) {
		t.Fatal("index tile encoding is not canonical")
	}
	for i, h := range idHashes {
		if !dec.IDBloom.Test(h) {
			t.Fatalf("bloom false negative for id hash %d", i)
		}
		idx, ok := SearchIndexRows(dec.ID, h)
		if !ok || idx != uint64(7*span+i) {
			t.Fatalf("id row %d: got (%d, %v)", i, idx, ok)
		}
	}
	for i, h := range leafHashes {
		if !dec.LeafBloom.Test(h) {
			t.Fatalf("bloom false negative for leaf hash %d", i)
		}
		idx, ok := SearchIndexRows(dec.Leaf, h)
		if !ok || idx != uint64(7*span+i) {
			t.Fatalf("leaf row %d: got (%d, %v)", i, idx, ok)
		}
	}
	var absent [32]byte
	absent[0] = 0xAB
	if _, ok := SearchIndexRows(dec.ID, absent); ok {
		t.Fatal("found an absent hash")
	}

	// Out-of-order rows must be rejected: swap two sorted rows and
	// re-encode by hand.
	broken := *ix
	broken.ID = append([]IndexRow(nil), ix.ID...)
	broken.ID[0], broken.ID[1] = broken.ID[1], broken.ID[0]
	if _, err := DecodeTileIndex(EncodeTileIndex(&broken)); err == nil {
		t.Fatal("unsorted index rows decoded")
	}

	// Every bloom must have NewBloom(span)'s shape, the one SlicedBlooms
	// holds: a well-framed index whose bloom has another K or size is
	// corrupt.
	for name, reshape := range map[string]func(*TileIndex){
		"id bloom k=3":          func(ix *TileIndex) { ix.IDBloom.K = 3 },
		"leaf bloom k=5":        func(ix *TileIndex) { ix.LeafBloom.K = 5 },
		"id bloom twice sized":  func(ix *TileIndex) { ix.IDBloom = NewBloom(2 * span) },
		"leaf bloom half sized": func(ix *TileIndex) { ix.LeafBloom = NewBloom(span / 2) },
	} {
		bad := *ix
		reshape(&bad)
		if _, err := DecodeTileIndex(EncodeTileIndex(&bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err=%v, want ErrCorrupt", name, err)
		}
	}
}

func TestBloomSizing(t *testing.T) {
	b := NewBloom(1024)
	if got := len(b.Bits) * 8; got != 16384 {
		t.Fatalf("bloom for 1024 keys has %d bits, want 16384", got)
	}
	// False-positive spot check: fill with n keys, probe 10n others; at
	// ~16 bits/key, k=4, the FP rate is ≈0.24% — allow 1.5%.
	n := 1024
	b = NewBloom(n)
	key := func(i int) [32]byte {
		var h [32]byte
		sum := sha256.Sum256(binary.BigEndian.AppendUint64(nil, uint64(i)))
		copy(h[:], sum[:])
		return h
	}
	for i := 0; i < n; i++ {
		b.Add(key(i))
	}
	fp := 0
	for i := n; i < 11*n; i++ {
		if b.Test(key(i)) {
			fp++
		}
	}
	if fp > 10*n*15/1000 {
		t.Fatalf("%d false positives in %d probes", fp, 10*n)
	}
}

// randomHash draws a uniform 32-byte hash.
func randomHash(rng *rand.Rand) (h [32]byte) {
	for i := 0; i < 32; i += 8 {
		binary.LittleEndian.PutUint64(h[i:], rng.Uint64())
	}
	return h
}

// probeEachTile is the reference SlicedBlooms.Probe must equal: a
// Bloom.Test per tile of [from, to).
func probeEachTile(blooms []Bloom, h [32]byte, from, to uint64) []uint64 {
	var hits []uint64
	for tile := from; tile < min(to, uint64(len(blooms))); tile++ {
		if blooms[tile].Test(h) {
			hits = append(hits, tile)
		}
	}
	return hits
}

// TestSlicedBloomsProbeMatchesTest holds Probe to the per-tile Bloom.Test
// loop over 200 random blooms — empty ones, sparse ones and ones filled
// past their sizing, so probes hit often — on ranges that start and end
// at and around the 64-tile block edges, past the last tile, and empty
// or inverted, at every tile count from 0 to 200.
func TestSlicedBloomsProbeMatchesTest(t *testing.T) {
	const span, tiles = 4, 200
	rng := rand.New(rand.NewSource(27))
	var keys [][32]byte
	blooms := make([]Bloom, tiles)
	for i := range blooms {
		blooms[i] = NewBloom(span)
		for n := rng.Intn(3) * rng.Intn(8); n > 0; n-- {
			keys = append(keys, randomHash(rng))
			blooms[i].Add(keys[len(keys)-1])
		}
	}
	edges := []uint64{0, 1, 62, 63, 64, 65, 100, 127, 128, 129, 191, 192, 199, 200, 1000}
	s := NewSlicedBlooms(span)
	var probes, hits int
	for n := 0; n <= tiles; n++ {
		for q := 0; q < 8; q++ {
			h := randomHash(rng)
			if q%2 == 0 && len(keys) > 0 {
				h = keys[rng.Intn(len(keys))]
			}
			ranges := [][2]uint64{{0, ^uint64(0)}, {uint64(rng.Intn(tiles + 1)), uint64(rng.Intn(tiles + 1))}}
			for _, from := range edges {
				for _, to := range edges {
					ranges = append(ranges, [2]uint64{from, to})
				}
			}
			for _, r := range ranges {
				want := probeEachTile(blooms[:n], h, r[0], r[1])
				if got := s.Probe(h, r[0], r[1]); !slices.Equal(got, want) {
					t.Fatalf("%d tiles, probe [%d, %d): got %v, want %v", n, r[0], r[1], got, want)
				}
				probes++
				hits += len(want)
			}
		}
		if n < tiles {
			s.Add(uint64(n), blooms[n])
		}
	}
	if hits < probes/8 {
		t.Fatalf("%d hits in %d probes: the comparison is too sparse", hits, probes)
	}
}

// BenchmarkSealedProbe probes every sealed tile's leaf bloom for one hash
// held by one tile, the lookup a get-proof-by-hash makes: a Bloom.Test
// per tile against one SlicedBlooms probe, at span 1024 (1024 keys per
// tile).
func BenchmarkSealedProbe(b *testing.B) {
	const span = 1024
	for _, tiles := range []int{64, 1024, 8192} {
		rng := rand.New(rand.NewSource(int64(tiles)))
		blooms := make([]Bloom, tiles)
		for i := range blooms {
			blooms[i] = NewBloom(span)
			for k := 0; k < span; k++ {
				blooms[i].Add(randomHash(rng))
			}
		}
		keys := make([][32]byte, 256)
		for i := range keys {
			keys[i] = randomHash(rng)
			blooms[rng.Intn(tiles)].Add(keys[i])
		}
		s := NewSlicedBlooms(span)
		for i, bl := range blooms {
			s.Add(uint64(i), bl)
		}
		b.Run(fmt.Sprintf("tiles=%d/per-tile", tiles), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				probeEachTile(blooms, keys[i%len(keys)], 0, ^uint64(0))
			}
		})
		b.Run(fmt.Sprintf("tiles=%d/sliced", tiles), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				s.Probe(keys[i%len(keys)], 0, ^uint64(0))
			}
		})
	}
}

func TestStoreWriteReadTile(t *testing.T) {
	st, err := Open(t.TempDir() + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leaves, leafHashes, idHashes := tileTestLeaves(4)
	ht, _ := BuildHashTile(0, leafHashes)
	lt := &LeafTile{Tile: 0, Span: 4, Leaves: leaves}
	ix := BuildTileIndex(0, 0, idHashes, leafHashes)
	if err := st.WriteTile(0, EncodeLeafTile(lt), EncodeHashTile(ht), EncodeTileIndex(ix)); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{TileExtLeaf, TileExtHash, TileExtIndex} {
		data, err := st.ReadTile(0, ext)
		if err != nil {
			t.Fatalf("reading %s: %v", ext, err)
		}
		if len(data) == 0 {
			t.Fatalf("empty %s tile", ext)
		}
	}
	got, err := st.ReadTile(0, TileExtHash)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeHashTile(got)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != ht.Root() {
		t.Fatal("tile root changed across store round trip")
	}
	// Reading a tile that does not exist is an error, not sticky failure.
	if _, err := st.ReadTile(99, TileExtLeaf); err == nil {
		t.Fatal("read of missing tile succeeded")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("read failure poisoned the store: %v", err)
	}
}

func TestSnapshotV2TileFields(t *testing.T) {
	_, leafHashes, _ := tileTestLeaves(4)
	ht, _ := BuildHashTile(0, leafHashes)
	snap := &Snapshot{
		Sequenced:    [][]byte{[]byte("\x00\x00tail-leaf")},
		STH:          STHRecord{Timestamp: 9, TreeSize: 5, Sig: []byte{1}},
		WALOffset:    MagicLen,
		TiledThrough: 4,
		TileSpan:     4,
		TileRoots:    [][32]byte{ht.Root()},
	}
	if snap.TreeSize() != 5 {
		t.Fatalf("TreeSize = %d, want 5", snap.TreeSize())
	}
	dec, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if dec.TiledThrough != 4 || dec.TileSpan != 4 || len(dec.TileRoots) != 1 || dec.TileRoots[0] != ht.Root() {
		t.Fatal("snapshot tile fields did not round trip")
	}
	if !bytes.Equal(EncodeSnapshot(dec), EncodeSnapshot(snap)) {
		t.Fatal("snapshot encoding is not canonical")
	}

	// Structural validation: misaligned tiled-through, bad span, and a
	// root-count mismatch are all ErrCorrupt.
	for _, mutate := range []func(*Snapshot){
		func(s *Snapshot) { s.TiledThrough = 3 },
		func(s *Snapshot) { s.TileSpan = 3 },
		func(s *Snapshot) { s.TileSpan = 0 },
		func(s *Snapshot) { s.TileRoots = nil },
	} {
		bad := *snap
		mutate(&bad)
		if _, err := DecodeSnapshot(EncodeSnapshot(&bad)); err == nil {
			t.Fatal("structurally invalid snapshot decoded")
		}
	}
}
