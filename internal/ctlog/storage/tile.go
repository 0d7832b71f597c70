package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"ctrise/internal/merkle"
	"ctrise/internal/tlsenc"
)

// Tile files. A sealed tile is one span-aligned run of sequenced entries
// rendered as three immutable files, each carried by the same framed
// record codec as the WAL and snapshots (CRC32C per record, magic +
// version header, written by Store.WriteTile):
//
//	NNNNNNNNNNNNNNNN.leaf  — the MerkleTreeLeaf bytes of each entry
//	NNNNNNNNNNNNNNNN.hash  — every Merkle level of the tile's subtree,
//	                         leaves up to the single tile root
//	NNNNNNNNNNNNNNNN.idx   — bloom filters + sorted (hash, index) rows
//	                         by identity hash and by leaf hash
//
// where NNNNNNNNNNNNNNNN is the zero-padded hex tile number, so
// lexicographic directory order is tile order. Decoders are strict
// (whole-file, no trailing bytes) and self-verifying: a hash tile
// recomputes every parent level from its children, so a decoded tile
// that passes validation is internally consistent and its Root() is the
// root actually implied by its leaf hashes.

// Tile file magics. 8 bytes, same shape as the WAL/snapshot magics.
var (
	TileLeafMagic  = []byte{'C', 'T', 'T', 'L', 'F', 0, 0, 1}
	TileHashMagic  = []byte{'C', 'T', 'T', 'H', 'S', 0, 0, 1}
	TileIndexMagic = []byte{'C', 'T', 'T', 'I', 'X', 0, 0, 1}
)

// Tile record types. Values are part of the on-disk format; never reuse.
const (
	// RecordTileMeta heads every tile file: tile number and span.
	RecordTileMeta RecordType = 32
	// RecordTileLevel carries one Merkle level of a hash tile:
	// level byte, then span>>level node hashes.
	RecordTileLevel RecordType = 33
	// RecordTileBloom carries one bloom filter of an index tile:
	// which byte (TileIndexID / TileIndexLeaf), hash count k, bit array.
	RecordTileBloom RecordType = 34
	// RecordTileRows carries one sorted (hash, index) array of an index
	// tile: which byte, then span rows of 32-byte hash + 8-byte index.
	RecordTileRows RecordType = 35
)

// Index kinds inside an index tile.
const (
	// TileIndexID indexes entries by identity hash (dedupe).
	TileIndexID = 0
	// TileIndexLeaf indexes entries by Merkle leaf hash (proof-by-hash).
	TileIndexLeaf = 1
)

// TileExt* name the three files of a sealed tile.
const (
	TileExtLeaf  = "leaf"
	TileExtHash  = "hash"
	TileExtIndex = "idx"
)

// validTileSpan reports whether span is a power of two ≥ 2 (the same
// constraint merkle.NewTiled enforces).
func validTileSpan(span uint64) bool {
	return span >= 2 && span&(span-1) == 0
}

// encodeTileMeta builds the meta payload shared by all three tile files.
func encodeTileMeta(tile, span uint64) []byte {
	b := tlsenc.NewBuilder(16)
	b.AddUint64(tile)
	b.AddUint64(span)
	return b.MustBytes()
}

// decodeTileHeader validates a tile file's magic and meta record and
// returns tile, span, and the offset past the meta record.
func decodeTileHeader(data, magic []byte) (tile, span uint64, off int, err error) {
	if len(data) < MagicLen {
		return 0, 0, 0, fmt.Errorf("%w: short tile header", ErrCorrupt)
	}
	if !bytes.Equal(data[:MagicLen], magic) {
		return 0, 0, 0, fmt.Errorf("%w: bad tile magic", ErrCorrupt)
	}
	rec, n, err := ReadRecord(data[MagicLen:])
	if err != nil {
		return 0, 0, 0, err
	}
	if rec.Type != RecordTileMeta {
		return 0, 0, 0, fmt.Errorf("%w: tile file starts with record type %d", ErrCorrupt, rec.Type)
	}
	r := tlsenc.NewReader(rec.Payload)
	tile = r.Uint64()
	span = r.Uint64()
	if err := r.ExpectEmpty(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: tile meta: %v", ErrCorrupt, err)
	}
	if !validTileSpan(span) {
		return 0, 0, 0, fmt.Errorf("%w: tile span %d is not a power of two ≥ 2", ErrCorrupt, span)
	}
	return tile, span, MagicLen + n, nil
}

// LeafTile is the decoded form of a .leaf file: the MerkleTreeLeaf bytes
// of entries [Tile*Span, (Tile+1)*Span).
type LeafTile struct {
	Tile   uint64
	Span   uint64
	Leaves [][]byte
}

// EncodeLeafTile appends a leaf tile file image to dst (which may be
// nil) and returns the extended slice; a caller that passes the last
// image back as dst[:0] reuses its memory. Encoding is canonical.
func EncodeLeafTile(dst []byte, t *LeafTile) []byte {
	size := MagicLen + recordOverhead*(1+len(t.Leaves)) + 16
	for _, l := range t.Leaves {
		size += len(l)
	}
	out := slices.Grow(dst, size)
	out = append(out, TileLeafMagic...)
	out = AppendRecord(out, RecordTileMeta, encodeTileMeta(t.Tile, t.Span))
	for _, l := range t.Leaves {
		out = AppendRecord(out, RecordEntry, l)
	}
	return out
}

// DecodeLeafTile parses and validates a leaf tile image: exactly span
// entry records, nothing else. Returned leaf slices alias data.
func DecodeLeafTile(data []byte) (*LeafTile, error) {
	tile, span, off, err := decodeTileHeader(data, TileLeafMagic)
	if err != nil {
		return nil, err
	}
	if span > uint64(len(data))/recordOverhead+1 {
		return nil, fmt.Errorf("%w: leaf tile claims %d entries in %d bytes", ErrCorrupt, span, len(data))
	}
	leaves, err := decodeLeafRecords(data[off:], int(span), make([][]byte, 0, span))
	if err != nil {
		return nil, err
	}
	return &LeafTile{Tile: tile, Span: span, Leaves: leaves}, nil
}

// leafTileHeaderLen is the length of every leaf tile file's header: its
// magic and its meta record. A ranged read of a leaf tile reads it
// together with the records it wants (Store.ReadLeafRange).
const leafTileHeaderLen = MagicLen + recordOverhead + 16

// LeafTileOffsets returns where each of t's records starts in its file
// image, plus the image's end: record i is bytes [offs[i], offs[i+1]).
// They are the offsets of the image EncodeLeafTile lays out, so for a
// tile DecodeLeafTile returned they are those of the file it decoded
// (its framing is strict: no gap, no trailing byte). An image of 4 GiB
// or more is refused, since the offsets are 32-bit.
func LeafTileOffsets(t *LeafTile) ([]uint32, error) {
	offs := make([]uint32, len(t.Leaves)+1)
	off := uint64(leafTileHeaderLen)
	for i, leaf := range t.Leaves {
		offs[i] = uint32(off)
		off += recordOverhead + uint64(len(leaf))
		if off > math.MaxUint32 {
			return nil, fmt.Errorf("storage: leaf tile %d is over 4 GiB", t.Tile)
		}
	}
	offs[len(t.Leaves)] = uint32(off)
	return offs, nil
}

// decodeLeafRange parses and validates Store.ReadLeafRange's read of the
// leaf tile (tile, span): the file's header (magic and meta record)
// followed by exactly n entry records, nothing else. The header's label
// is checked first. The records' payloads are appended to leaves,
// aliasing data.
func decodeLeafRange(data []byte, tile, span uint64, n int, leaves [][]byte) ([][]byte, error) {
	gotTile, gotSpan, off, err := decodeTileHeader(data, TileLeafMagic)
	if err != nil {
		return nil, err
	}
	if gotTile != tile || gotSpan != span {
		return nil, fmt.Errorf("%w: leaf tile %d labeled (%d, span %d)", ErrCorrupt, tile, gotTile, gotSpan)
	}
	return decodeLeafRecords(data[off:], n, leaves)
}

// decodeLeafRecords parses exactly n entry records that make up all of
// data, appending their payloads (aliasing data) to leaves.
func decodeLeafRecords(data []byte, n int, leaves [][]byte) ([][]byte, error) {
	off := 0
	for i := 0; i < n; i++ {
		rec, size, err := ReadRecord(data[off:])
		if err != nil {
			return nil, err
		}
		if rec.Type != RecordEntry {
			return nil, fmt.Errorf("%w: leaf tile entry %d has record type %d", ErrCorrupt, i, rec.Type)
		}
		leaves = append(leaves, rec.Payload)
		off += size
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after leaf tile records", ErrCorrupt, len(data)-off)
	}
	return leaves, nil
}

// HashTile is the decoded form of a .hash file: every Merkle level of
// one tile's perfect subtree. Levels[l] holds the span>>l nodes of level
// l, from the leaf hashes (l = 0) up to the single tile root
// (l = log2(span)). This is exactly the slab of nodes merkle.TiledTree
// prunes from RAM when the tile seals.
type HashTile struct {
	Tile   uint64
	Span   uint64
	Levels [][][32]byte
}

// Root returns the tile's subtree root (the top level's only node).
func (t *HashTile) Root() [32]byte {
	return t.Levels[len(t.Levels)-1][0]
}

// BuildHashTile computes all levels of a tile's subtree from its leaf
// hashes (len(leafHashes) must be a valid span).
func BuildHashTile(tile uint64, leafHashes [][32]byte) (*HashTile, error) {
	span := uint64(len(leafHashes))
	if !validTileSpan(span) {
		return nil, fmt.Errorf("storage: building hash tile over %d leaves", span)
	}
	depth := bits.TrailingZeros64(span)
	t := &HashTile{Tile: tile, Span: span, Levels: make([][][32]byte, depth+1)}
	t.Levels[0] = leafHashes
	for l := 1; l <= depth; l++ {
		below := t.Levels[l-1]
		level := make([][32]byte, len(below)/2)
		for i := range level {
			level[i] = [32]byte(merkle.HashChildren(merkle.Hash(below[2*i]), merkle.Hash(below[2*i+1])))
		}
		t.Levels[l] = level
	}
	return t, nil
}

// EncodeHashTile renders a hash tile file image. Encoding is canonical.
func EncodeHashTile(t *HashTile) []byte {
	size := MagicLen + recordOverhead*(1+len(t.Levels)) + 16
	for _, lvl := range t.Levels {
		size += 1 + 32*len(lvl)
	}
	out := make([]byte, 0, size)
	out = append(out, TileHashMagic...)
	out = AppendRecord(out, RecordTileMeta, encodeTileMeta(t.Tile, t.Span))
	for l, lvl := range t.Levels {
		payload := make([]byte, 1, 1+32*len(lvl))
		payload[0] = byte(l)
		for _, h := range lvl {
			payload = append(payload, h[:]...)
		}
		out = AppendRecord(out, RecordTileLevel, payload)
	}
	return out
}

// DecodeHashTile parses and validates a hash tile image. Beyond the
// structural checks, every parent level is recomputed from its children:
// a decoded HashTile is guaranteed internally consistent, so verifying
// its Root() against the tree verifies every node in the file.
func DecodeHashTile(data []byte) (*HashTile, error) {
	tile, span, off, err := decodeTileHeader(data, TileHashMagic)
	if err != nil {
		return nil, err
	}
	depth := bits.TrailingZeros64(span)
	t := &HashTile{Tile: tile, Span: span, Levels: make([][][32]byte, 0, depth+1)}
	for l := 0; l <= depth; l++ {
		rec, n, err := ReadRecord(data[off:])
		if err != nil {
			return nil, err
		}
		if rec.Type != RecordTileLevel {
			return nil, fmt.Errorf("%w: hash tile level %d has record type %d", ErrCorrupt, l, rec.Type)
		}
		want := span >> uint(l)
		if len(rec.Payload) != 1+int(want)*32 {
			return nil, fmt.Errorf("%w: hash tile level %d payload is %d bytes, want %d", ErrCorrupt, l, len(rec.Payload), 1+want*32)
		}
		if int(rec.Payload[0]) != l {
			return nil, fmt.Errorf("%w: hash tile level %d labeled %d", ErrCorrupt, l, rec.Payload[0])
		}
		level := make([][32]byte, want)
		for i := range level {
			copy(level[i][:], rec.Payload[1+32*i:])
		}
		t.Levels = append(t.Levels, level)
		off += n
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after hash tile", ErrCorrupt, len(data)-off)
	}
	for l := 1; l <= depth; l++ {
		below, level := t.Levels[l-1], t.Levels[l]
		for i := range level {
			if want := [32]byte(merkle.HashChildren(merkle.Hash(below[2*i]), merkle.Hash(below[2*i+1]))); level[i] != want {
				return nil, fmt.Errorf("%w: hash tile node (level %d, pos %d) does not hash from its children", ErrCorrupt, l, i)
			}
		}
	}
	return t, nil
}

// IndexRow maps one 32-byte hash to the absolute entry index it belongs
// to. Rows in an index tile are sorted by hash for binary search.
type IndexRow struct {
	Hash  [32]byte
	Index uint64
}

// TileIndex is the decoded form of an .idx file: for one sealed tile,
// bloom-fronted sorted indexes by identity hash and by Merkle leaf hash.
// The blooms are small enough (~2 bytes per entry each) to stay
// resident for every sealed tile; the ctlog layer keeps both. Of the
// row arrays it reads only ID, paged in when the identity bloom reports
// a possible hit on a dedupe lookup. Leaf is written and validated with
// the rest of the file but has no reader: get-proof-by-hash finds a
// sealed leaf in the tile's root-pinned hash file instead.
type TileIndex struct {
	Tile      uint64
	Span      uint64
	IDBloom   Bloom
	LeafBloom Bloom
	ID        []IndexRow
	Leaf      []IndexRow
}

// BuildTileIndex constructs the index for one tile: row i of each input
// is the hash of absolute entry firstIndex+i. Rows are sorted and the
// blooms populated here so encoding stays canonical.
func BuildTileIndex(tile uint64, firstIndex uint64, idHashes, leafHashes [][32]byte) *TileIndex {
	mk := func(hashes [][32]byte) ([]IndexRow, Bloom) {
		rows := make([]IndexRow, len(hashes))
		bloom := NewBloom(len(hashes))
		for i, h := range hashes {
			rows[i] = IndexRow{Hash: h, Index: firstIndex + uint64(i)}
			bloom.Add(h)
		}
		slices.SortFunc(rows, compareRows)
		return rows, bloom
	}
	ix := &TileIndex{Tile: tile, Span: uint64(len(idHashes))}
	ix.ID, ix.IDBloom = mk(idHashes)
	ix.Leaf, ix.LeafBloom = mk(leafHashes)
	return ix
}

// compareRows orders index rows by hash, then by entry index. The hash
// compares as its first 8 bytes read big-endian, then the other 24:
// the same order as bytes.Compare over all 32, decided by one integer
// compare for all but a vanishing share of distinct hashes.
func compareRows(a, b IndexRow) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(a.Hash[:8]), binary.BigEndian.Uint64(b.Hash[:8])); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Hash[8:], b.Hash[8:]); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// SearchIndexRows binary-searches sorted rows for hash h, returning the
// entry index of the first match.
func SearchIndexRows(rows []IndexRow, h [32]byte) (uint64, bool) {
	i := sort.Search(len(rows), func(i int) bool {
		return bytes.Compare(rows[i].Hash[:], h[:]) >= 0
	})
	if i < len(rows) && rows[i].Hash == h {
		return rows[i].Index, true
	}
	return 0, false
}

func encodeRows(which byte, rows []IndexRow) []byte {
	payload := make([]byte, 1, 1+40*len(rows))
	payload[0] = which
	for _, r := range rows {
		payload = append(payload, r.Hash[:]...)
		payload = binary.BigEndian.AppendUint64(payload, r.Index)
	}
	return payload
}

func decodeRows(which byte, span uint64, payload []byte) ([]IndexRow, error) {
	if len(payload) != 1+int(span)*40 {
		return nil, fmt.Errorf("%w: index rows payload is %d bytes, want %d", ErrCorrupt, len(payload), 1+span*40)
	}
	if payload[0] != which {
		return nil, fmt.Errorf("%w: index rows labeled %d, want %d", ErrCorrupt, payload[0], which)
	}
	rows := make([]IndexRow, span)
	for i := range rows {
		p := payload[1+40*i:]
		copy(rows[i].Hash[:], p)
		rows[i].Index = binary.BigEndian.Uint64(p[32:])
		if i > 0 && compareRows(rows[i-1], rows[i]) >= 0 {
			return nil, fmt.Errorf("%w: index rows out of order at %d", ErrCorrupt, i)
		}
	}
	return rows, nil
}

// EncodeTileIndex renders an index tile file image. Encoding is
// canonical.
func EncodeTileIndex(ix *TileIndex) []byte {
	out := make([]byte, 0, MagicLen+16+2*(len(ix.IDBloom.Bits)+4)+80*len(ix.ID)+recordOverhead*5)
	out = append(out, TileIndexMagic...)
	out = AppendRecord(out, RecordTileMeta, encodeTileMeta(ix.Tile, ix.Span))
	out = AppendRecord(out, RecordTileBloom, encodeBloom(TileIndexID, ix.IDBloom))
	out = AppendRecord(out, RecordTileRows, encodeRows(TileIndexID, ix.ID))
	out = AppendRecord(out, RecordTileBloom, encodeBloom(TileIndexLeaf, ix.LeafBloom))
	out = AppendRecord(out, RecordTileRows, encodeRows(TileIndexLeaf, ix.Leaf))
	return out
}

// DecodeTileIndex parses and validates an index tile image: both blooms
// (each of NewBloom(span)'s K and size, the one shape SlicedBlooms
// holds), both sorted row arrays (span rows each, order verified), no
// trailing bytes.
func DecodeTileIndex(data []byte) (*TileIndex, error) {
	tile, span, off, err := decodeTileHeader(data, TileIndexMagic)
	if err != nil {
		return nil, err
	}
	if span > uint64(len(data))/40 {
		return nil, fmt.Errorf("%w: index tile claims %d rows in %d bytes", ErrCorrupt, span, len(data))
	}
	ix := &TileIndex{Tile: tile, Span: span}
	next := func(typ RecordType) (Record, error) {
		rec, n, err := ReadRecord(data[off:])
		if err != nil {
			return Record{}, err
		}
		if rec.Type != typ {
			return Record{}, fmt.Errorf("%w: index tile has record type %d, want %d", ErrCorrupt, rec.Type, typ)
		}
		off += n
		return rec, nil
	}
	for _, part := range []struct {
		which byte
		bloom *Bloom
		rows  *[]IndexRow
	}{{TileIndexID, &ix.IDBloom, &ix.ID}, {TileIndexLeaf, &ix.LeafBloom, &ix.Leaf}} {
		rec, err := next(RecordTileBloom)
		if err != nil {
			return nil, err
		}
		if *part.bloom, err = decodeBloom(part.which, span, rec.Payload); err != nil {
			return nil, err
		}
		if rec, err = next(RecordTileRows); err != nil {
			return nil, err
		}
		if *part.rows, err = decodeRows(part.which, span, rec.Payload); err != nil {
			return nil, err
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after index tile", ErrCorrupt, len(data)-off)
	}
	return ix, nil
}

// Bloom is a fixed-size bloom filter over 32-byte hashes. The probe
// positions are carved directly out of the (already uniform) hash bytes,
// so a probe costs K masked loads and no extra hashing. Sized at ~16 bits
// per key with K=4 the false-positive rate is ≈0.24% per tile probed: a
// new submission's identity probe pages in a needless index page, and a
// proof by hash's leaf probe a needless hash page, once per ~400 tiles
// probed.
type Bloom struct {
	K    int
	Bits []byte
}

// bloomK is the hash count of every bloom NewBloom makes.
const bloomK = 4

// bloomBits is the bit count of NewBloom(n): the next power of two
// ≥ 16n (so probe masking is a single AND), at least 64.
func bloomBits(n int) int {
	m := uint64(64)
	for m < uint64(n)*16 {
		m *= 2
	}
	return int(m)
}

// NewBloom returns an empty bloom sized for n keys: bloomBits(n) bits,
// K = 4.
func NewBloom(n int) Bloom {
	return Bloom{K: bloomK, Bits: make([]byte, bloomBits(n)/8)}
}

func (b Bloom) positions(h [32]byte) [8]uint32 {
	return bloomPositions(h, b.K, len(b.Bits)*8)
}

// bloomPositions returns the k bit positions h sets in a bloom of nbits
// bits (a power of two).
func bloomPositions(h [32]byte, k, nbits int) [8]uint32 {
	var pos [8]uint32
	mask := uint32(nbits - 1)
	for i := 0; i < k && i < 8; i++ {
		pos[i] = binary.BigEndian.Uint32(h[4*i:]) & mask
	}
	return pos
}

// Add inserts h.
func (b Bloom) Add(h [32]byte) {
	pos := b.positions(h)
	for i := 0; i < b.K; i++ {
		b.Bits[pos[i]/8] |= 1 << (pos[i] % 8)
	}
}

// SlicedBlooms holds one bloom of a kind for every sealed tile, all of
// NewBloom(span)'s shape, transposed in blocks of 64 tiles: word p of
// block b has bit t set when tile 64b+t's bloom has bit p set. A probe
// ANDs the K words at a hash's positions in each block, so it costs K
// loads per 64 tiles where testing each tile's Bloom costs up to K per
// tile. The bits are the same ones the tiles' blooms hold; only the last
// block is allocated whole before its tiles arrive.
type SlicedBlooms struct {
	k, nbits int
	n        uint64     // tiles added
	blocks   [][]uint64 // nbits words each
}

// NewSlicedBlooms returns an empty set for the blooms of tiles of span
// entries.
func NewSlicedBlooms(span int) *SlicedBlooms {
	return &SlicedBlooms{k: bloomK, nbits: bloomBits(span)}
}

// Add appends tile's bloom. Tiles arrive in order, and the bloom has the
// set's shape (DecodeTileIndex guarantees it for every bloom read from
// disk, BuildTileIndex for every bloom a seal builds); anything else is
// a bug in the caller, and Add panics.
func (s *SlicedBlooms) Add(tile uint64, b Bloom) {
	if tile != s.n || b.K != s.k || len(b.Bits)*8 != s.nbits {
		panic(fmt.Sprintf("storage: adding tile %d (k=%d, %d bits) to %d tiles of k=%d, %d bits", tile, b.K, len(b.Bits)*8, s.n, s.k, s.nbits))
	}
	if tile%64 == 0 {
		s.blocks = append(s.blocks, make([]uint64, s.nbits))
	}
	words, bit := s.blocks[tile/64], uint64(1)<<(tile%64)
	for i, c := range b.Bits {
		for ; c != 0; c &= c - 1 {
			words[8*i+bits.TrailingZeros8(c)] |= bit
		}
	}
	s.n++
}

// Probe returns, in ascending order, the tiles in [from, to) whose bloom
// may hold h: exactly those whose bloom has every bit h sets (false
// positives possible, false negatives not). to is clamped to the tiles
// added.
func (s *SlicedBlooms) Probe(h [32]byte, from, to uint64) []uint64 {
	to = min(to, s.n)
	if from >= to {
		return nil
	}
	pos := bloomPositions(h, s.k, s.nbits)
	first, last := from/64, (to-1)/64
	var hits []uint64
	for b := first; b <= last; b++ {
		words := s.blocks[b]
		m := ^uint64(0)
		for _, p := range pos[:s.k] {
			m &= words[p]
		}
		if b == first {
			m &= ^uint64(0) << (from % 64)
		}
		if b == last {
			m &= ^uint64(0) >> (63 - (to-1)%64)
		}
		for ; m != 0; m &= m - 1 {
			hits = append(hits, 64*b+uint64(bits.TrailingZeros64(m)))
		}
	}
	return hits
}

func encodeBloom(which byte, b Bloom) []byte {
	out := make([]byte, 2, 2+len(b.Bits))
	out[0] = which
	out[1] = byte(b.K)
	return append(out, b.Bits...)
}

// decodeBloom decodes one bloom of a tile of span entries. It must have
// NewBloom(span)'s K and size: the one shape SlicedBlooms holds.
func decodeBloom(which byte, span uint64, payload []byte) (Bloom, error) {
	if len(payload) < 2 {
		return Bloom{}, fmt.Errorf("%w: short bloom payload", ErrCorrupt)
	}
	if payload[0] != which {
		return Bloom{}, fmt.Errorf("%w: bloom labeled %d, want %d", ErrCorrupt, payload[0], which)
	}
	k, bits := int(payload[1]), payload[2:]
	if want := bloomBits(int(span)); k != bloomK || len(bits)*8 != want {
		return Bloom{}, fmt.Errorf("%w: bloom has k=%d and %d bits, want k=%d and %d for span %d", ErrCorrupt, k, len(bits)*8, bloomK, want, span)
	}
	return Bloom{K: k, Bits: bytes.Clone(bits)}, nil
}
