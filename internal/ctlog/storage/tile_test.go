package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
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
	enc := EncodeLeafTile(nil, tile)
	dec, err := DecodeLeafTile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tile != 42 || dec.Span != 8 || !reflect.DeepEqual(dec.Leaves, leaves) {
		t.Fatal("leaf tile round trip mismatch")
	}
	if got := EncodeLeafTile(nil, dec); !bytes.Equal(got, enc) {
		t.Fatal("leaf tile encoding is not canonical")
	}
	// A leaf tile must hold exactly span entries.
	short := &LeafTile{Tile: 42, Span: 8, Leaves: leaves[:7]}
	if _, err := DecodeLeafTile(EncodeLeafTile(nil, short)); err == nil {
		t.Fatal("leaf tile with missing entry decoded")
	}
}

// TestEncodeLeafTileAppends: the encoder appends to dst, leaving what
// dst held in place, and an image encoded into a reused buffer is the
// one a nil dst gives.
func TestEncodeLeafTileAppends(t *testing.T) {
	leaves, _, _ := tileTestLeaves(8)
	want := EncodeLeafTile(nil, &LeafTile{Tile: 3, Span: 8, Leaves: leaves})
	buf := append(make([]byte, 0, 4), "pre"...)
	got := EncodeLeafTile(buf, &LeafTile{Tile: 3, Span: 8, Leaves: leaves})
	if string(got[:3]) != "pre" || !bytes.Equal(got[3:], want) {
		t.Fatal("EncodeLeafTile did not append the image after dst")
	}
	other, _, _ := tileTestLeaves(4)
	reused := EncodeLeafTile(got[:0], &LeafTile{Tile: 9, Span: 4, Leaves: other})
	if !bytes.Equal(reused, EncodeLeafTile(nil, &LeafTile{Tile: 9, Span: 4, Leaves: other})) {
		t.Fatal("an image encoded into a reused buffer differs")
	}
}

// TestLeafTileRanges holds the ranged read path to the whole-file one:
// every range [lo, hi) of an encoded tile with leaves of varying
// lengths, cut out as Store.ReadLeafRange cuts it (header plus
// [offs[lo], offs[hi])), decodes to exactly the leaves DecodeLeafTile
// gives, and the offsets LeafTileOffsets reports are where those
// records sit. A wrong label, a count the bytes do not hold, a flipped
// record byte and trailing bytes are each ErrCorrupt.
func TestLeafTileRanges(t *testing.T) {
	var leaves [][]byte
	for i := 0; i < 8; i++ {
		leaves = append(leaves, bytes.Repeat([]byte{byte(i)}, 1+i*37%50))
	}
	image := EncodeLeafTile(nil, &LeafTile{Tile: 5, Span: 8, Leaves: leaves})
	lt, err := DecodeLeafTile(image)
	if err != nil {
		t.Fatal(err)
	}
	offs, err := LeafTileOffsets(lt)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 9 || offs[0] != leafTileHeaderLen || offs[8] != uint32(len(image)) {
		t.Fatalf("offsets %v for an image of %d bytes", offs, len(image))
	}
	read := func(lo, hi int) []byte {
		return append(slices.Clone(image[:leafTileHeaderLen]), image[offs[lo]:offs[hi]]...)
	}
	for lo := 0; lo < 8; lo++ {
		for hi := lo + 1; hi <= 8; hi++ {
			got, err := decodeLeafRange(read(lo, hi), 5, 8, hi-lo, nil)
			if err != nil || !reflect.DeepEqual(got, lt.Leaves[lo:hi]) {
				t.Fatalf("range [%d, %d): %q, %v", lo, hi, got, err)
			}
		}
	}
	flipped := read(2, 5)
	flipped[len(flipped)-6] ^= 1
	for name, c := range map[string]struct {
		data       []byte
		tile, span uint64
		n          int
	}{
		"another tile":       {read(2, 5), 6, 8, 3},
		"another span":       {read(2, 5), 5, 16, 3},
		"fewer records":      {read(2, 5), 5, 8, 4},
		"more than the span": {read(0, 8), 5, 8, 9},
		"trailing bytes":     {read(2, 5), 5, 8, 2},
		"flipped byte":       {flipped, 5, 8, 3},
		"no header":          {image[offs[2]:offs[5]], 5, 8, 3},
	} {
		if _, err := decodeLeafRange(c.data, c.tile, c.span, c.n, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err=%v, want ErrCorrupt", name, err)
		}
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
	ref, err := merkle.NewTiled(span, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		ref.AppendLeafHash(merkle.HashLeaf(l))
	}
	want, err := ref.Root()
	if err != nil {
		t.Fatal(err)
	}
	if ht.Root() != [32]byte(want) {
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
		if !bloomHas(dec.IDBloom, h) {
			t.Fatalf("bloom false negative for id hash %d", i)
		}
		idx, ok := SearchIndexRows(dec.ID, h)
		if !ok || idx != uint64(7*span+i) {
			t.Fatalf("id row %d: got (%d, %v)", i, idx, ok)
		}
	}
	for i, h := range leafHashes {
		if !bloomHas(dec.LeafBloom, h) {
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

// TestBuildTileIndexRowOrder holds BuildTileIndex's typed sort to the
// order the .idx format defines: bytes.Compare over the whole hash,
// then the entry index. The hashes share their first 8 bytes in runs,
// repeat, and differ only in their last byte, so every branch of the
// comparison decides some pair.
func TestBuildTileIndexRowOrder(t *testing.T) {
	const span = 64
	rng := rand.New(rand.NewSource(7))
	hashes := make([][32]byte, span)
	for i := range hashes {
		switch i % 4 {
		case 0:
			rng.Read(hashes[i][:])
		case 1: // same first 8 bytes as the one before
			hashes[i] = hashes[i-1]
			rng.Read(hashes[i][8:])
		case 2: // differs from the one before in the last byte only
			hashes[i] = hashes[i-1]
			hashes[i][31]++
		case 3: // a repeat of an earlier hash
			hashes[i] = hashes[rng.Intn(i)]
		}
	}
	ix := BuildTileIndex(2, 2*span, hashes, hashes)
	want := make([]IndexRow, span)
	for i, h := range hashes {
		want[i] = IndexRow{Hash: h, Index: 2*span + uint64(i)}
	}
	slices.SortFunc(want, func(a, b IndexRow) int {
		if c := bytes.Compare(a.Hash[:], b.Hash[:]); c != 0 {
			return c
		}
		return int(a.Index) - int(b.Index)
	})
	if !slices.Equal(ix.ID, want) || !slices.Equal(ix.Leaf, want) {
		t.Fatal("index rows are not in (hash bytes, index) order")
	}
	if _, err := DecodeTileIndex(EncodeTileIndex(ix)); err != nil {
		t.Fatalf("decoding the built index: %v", err)
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
		if bloomHas(b, key(i)) {
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

// bloomHas reports whether h may have been added to b (false positives
// possible, false negatives not): the one-bloom test that
// SlicedBlooms.Probe answers for many tiles at once.
func bloomHas(b Bloom, h [32]byte) bool {
	if len(b.Bits) == 0 {
		return false
	}
	pos := b.positions(h)
	for i := 0; i < b.K; i++ {
		if b.Bits[pos[i]/8]&(1<<(pos[i]%8)) == 0 {
			return false
		}
	}
	return true
}

// probeEachTile is the reference SlicedBlooms.Probe must equal: a
// bloomHas per tile of [from, to).
func probeEachTile(blooms []Bloom, h [32]byte, from, to uint64) []uint64 {
	var hits []uint64
	for tile := from; tile < min(to, uint64(len(blooms))); tile++ {
		if bloomHas(blooms[tile], h) {
			hits = append(hits, tile)
		}
	}
	return hits
}

// TestSlicedBloomsProbeMatchesTest holds Probe to the per-tile bloomHas
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
// held by one tile, the lookup a get-proof-by-hash makes: a bloomHas
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
	if err := st.WriteTile(0, EncodeLeafTile(nil, lt), EncodeHashTile(ht), EncodeTileIndex(ix)); err != nil {
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
	// TileEquals: the same bytes and length through a buffer smaller
	// than the file, then a flipped byte, a file one byte longer and one
	// byte shorter are all different; a missing file is an error naming
	// the tile file.
	image := EncodeLeafTile(nil, lt)
	buf := make([]byte, 7)
	if same, err := st.TileEquals(0, TileExtLeaf, image, buf); err != nil || !same {
		t.Fatalf("TileEquals of the written image: %v, %v", same, err)
	}
	path := st.TilePath(0, TileExtLeaf)
	for name, data := range map[string][]byte{
		"flipped": append(append([]byte(nil), image[:len(image)-1]...), image[len(image)-1]^1),
		"longer":  append(append([]byte(nil), image...), 0),
		"shorter": image[:len(image)-1],
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if same, err := st.TileEquals(0, TileExtLeaf, image, buf); err != nil || same {
			t.Fatalf("TileEquals of a %s file: %v, %v", name, same, err)
		}
	}
	if _, err := st.TileEquals(99, TileExtLeaf, image, buf); err == nil || !strings.Contains(err.Error(), "tile 99.leaf") {
		t.Fatalf("TileEquals of a missing file: err=%v, want one naming tile 99.leaf", err)
	}
	// ReadLeafRange: the header and a later range (two reads), the
	// header and the records right behind it (one), into a reused buffer
	// and leaves slice, come back as exactly those leaves; a file cut
	// short of the range is ErrCorrupt, a missing one an error naming the
	// tile file.
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	offs, err := LeafTileOffsets(lt)
	if err != nil {
		t.Fatal(err)
	}
	var read [][]byte
	for _, r := range [][2]int{{2, 4}, {0, 1}, {0, 4}, {3, 4}} {
		var err error
		buf, read, err = st.ReadLeafRange(lt.Tile, lt.Span, offs, r[0], r[1], buf, read)
		want := append(slices.Clone(image[:leafTileHeaderLen]), image[offs[r[0]]:offs[r[1]]]...)
		if err != nil || !bytes.Equal(buf, want) || !reflect.DeepEqual(read, lt.Leaves[r[0]:r[1]]) {
			t.Fatalf("ReadLeafRange of entries [%d, %d): %q, %v", r[0], r[1], read, err)
		}
	}
	if err := os.WriteFile(path, image[:offs[3]+2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ReadLeafRange(lt.Tile, lt.Span, offs, 2, 4, buf, read); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadLeafRange past the end of a cut file: err=%v, want ErrCorrupt", err)
	}
	if _, _, err := st.ReadLeafRange(99, lt.Span, offs, 2, 4, buf, read); err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tile 99.leaf") {
		t.Fatalf("ReadLeafRange of a missing file: err=%v, want one naming tile 99.leaf", err)
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
