package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedWAL builds a representative valid WAL image: entries, a seal,
// and an STH; a torn tail variant is derived by the fuzzer.
func fuzzSeedWAL() []byte {
	out := append([]byte(nil), WALMagic...)
	out = AppendRecord(out, RecordEntry, []byte("\x00\x00leaf-one"))
	out = AppendRecord(out, RecordEntry, bytes.Repeat([]byte{0xC3}, 100))
	seal := SealRecord{TreeSize: 2}
	copy(seal.Root[:], bytes.Repeat([]byte{0x01}, 32))
	out = AppendRecord(out, RecordSeal, EncodeSeal(seal))
	sth := STHRecord{Timestamp: 1522540800000, TreeSize: 2, Sig: []byte{4, 3, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8}}
	copy(sth.Root[:], seal.Root[:])
	out = AppendRecord(out, RecordSTH, EncodeSTH(sth))
	return out
}

func fuzzSeedSnapshot() []byte {
	snap := &Snapshot{
		Sequenced: [][]byte{[]byte("\x00\x00seq-leaf"), bytes.Repeat([]byte{0x7F}, 64)},
		Staged:    [][]byte{[]byte("\x00\x00staged-leaf")},
		STH:       STHRecord{Timestamp: 9, TreeSize: 2, Sig: []byte{1}},
		WALOffset: 1234,
	}
	copy(snap.Root[:], bytes.Repeat([]byte{0x2B}, 32))
	return EncodeSnapshot(snap)
}

// FuzzWALDecode feeds arbitrary bytes to the WAL decoder and checks its
// invariants: no panic, the valid prefix never exceeds the input, and —
// the round-trip property — re-encoding the decoded records reproduces
// the valid prefix byte for byte, so nothing is invented or dropped
// inside it.
func FuzzWALDecode(f *testing.F) {
	seed := fuzzSeedWAL()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                             // torn tail
	f.Add(seed[:MagicLen])                                // header only
	f.Add([]byte{})                                       // empty
	f.Add([]byte("CTWAL"))                                // short header
	f.Add(append([]byte("NOTMAGIC"), seed[MagicLen:]...)) // wrong magic
	corrupt := append([]byte(nil), seed...)
	corrupt[MagicLen+9] ^= 0xFF
	f.Add(corrupt) // checksum failure in first record

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := decodeAppendLog(data, WALMagic)
		if err != nil {
			if len(recs) != 0 || valid != 0 {
				t.Fatalf("error with partial results: %d records, valid=%d", len(recs), valid)
			}
			return
		}
		if valid < MagicLen || valid > len(data) {
			t.Fatalf("valid=%d out of range [%d, %d]", valid, MagicLen, len(data))
		}
		reenc := append([]byte(nil), WALMagic...)
		for _, rec := range recs {
			if len(rec.Payload) > MaxRecordPayload {
				t.Fatalf("oversized payload %d accepted", len(rec.Payload))
			}
			reenc = AppendRecord(reenc, rec.Type, rec.Payload)
		}
		if !bytes.Equal(reenc, data[:valid]) {
			t.Fatalf("round trip mismatch: %d decoded bytes re-encode to %d", valid, len(reenc))
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder and
// checks: no panic, and any accepted snapshot re-encodes to exactly the
// input (snapshots are canonical and tolerate no variation).
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSeedSnapshot()
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // truncated: must be rejected
	f.Add([]byte{})
	f.Add(append([]byte(nil), SnapshotMagic...))
	empty := EncodeSnapshot(&Snapshot{})
	f.Add(empty)
	f.Add(append(append([]byte(nil), seed...), 0x00)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if got := EncodeSnapshot(snap); !bytes.Equal(got, data) {
			t.Fatalf("accepted snapshot is not canonical: %d bytes re-encode to %d", len(data), len(got))
		}
	})
}

// fuzzSeedTiles builds one valid image of each tile file kind.
func fuzzSeedTiles() (leaf, hash, index []byte) {
	leaves, leafHashes, idHashes := tileTestLeaves(4)
	lt := &LeafTile{Tile: 5, Span: 4, Leaves: leaves}
	ht, err := BuildHashTile(5, leafHashes)
	if err != nil {
		panic(err)
	}
	ix := BuildTileIndex(5, 20, idHashes, leafHashes)
	return EncodeLeafTile(nil, lt), EncodeHashTile(ht), EncodeTileIndex(ix)
}

// FuzzTileDecode feeds arbitrary bytes to all three tile decoders and
// checks their invariants: no panic, and any accepted tile re-encodes to
// exactly the input (tile files are canonical and tolerate no
// variation). The magics are disjoint, so at most one decoder can accept
// a given input.
func FuzzTileDecode(f *testing.F) {
	leaf, hash, index := fuzzSeedTiles()
	f.Add(leaf)
	f.Add(hash)
	f.Add(index)
	f.Add(leaf[:len(leaf)-1]) // truncated: must be rejected
	f.Add([]byte{})
	f.Add(append([]byte(nil), TileHashMagic...))
	corrupt := append([]byte(nil), hash...)
	corrupt[len(corrupt)/2] ^= 0x10 // interior node no longer hashes from children
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), index...), 0x00)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		if lt, err := DecodeLeafTile(data); err == nil {
			if got := EncodeLeafTile(nil, lt); !bytes.Equal(got, data) {
				t.Fatalf("accepted leaf tile is not canonical: %d bytes re-encode to %d", len(data), len(got))
			}
		}
		if ht, err := DecodeHashTile(data); err == nil {
			if got := EncodeHashTile(ht); !bytes.Equal(got, data) {
				t.Fatalf("accepted hash tile is not canonical: %d bytes re-encode to %d", len(data), len(got))
			}
		}
		if ix, err := DecodeTileIndex(data); err == nil {
			if got := EncodeTileIndex(ix); !bytes.Equal(got, data) {
				t.Fatalf("accepted index tile is not canonical: %d bytes re-encode to %d", len(data), len(got))
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz when UPDATE_FUZZ_CORPUS=1 — run it after any format
// change so the committed seeds stay valid images of the current
// version. The files use the standard go-fuzz corpus encoding.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := fuzzSeedSnapshot()
	write("FuzzSnapshotDecode", "valid_snapshot", snap)
	write("FuzzSnapshotDecode", "truncated_snapshot", snap[:len(snap)-1])
	write("FuzzSnapshotDecode", "trailing_byte", append(append([]byte(nil), snap...), 0x00))
	tiledSnap := fuzzSeedTiledSnapshot()
	write("FuzzSnapshotDecode", "tiled_snapshot", tiledSnap)
	leaf, hash, index := fuzzSeedTiles()
	write("FuzzTileDecode", "valid_leaf_tile", leaf)
	write("FuzzTileDecode", "valid_hash_tile", hash)
	write("FuzzTileDecode", "valid_index_tile", index)
	write("FuzzTileDecode", "truncated_leaf_tile", leaf[:len(leaf)-1])
	corrupt := append([]byte(nil), hash...)
	corrupt[len(corrupt)/2] ^= 0x10
	write("FuzzTileDecode", "corrupt_hash_tile", corrupt)
}

// fuzzSeedTiledSnapshot builds a valid v2 snapshot that references a
// sealed tile.
func fuzzSeedTiledSnapshot() []byte {
	_, leafHashes, _ := tileTestLeaves(4)
	ht, err := BuildHashTile(0, leafHashes)
	if err != nil {
		panic(err)
	}
	snap := &Snapshot{
		Sequenced:    [][]byte{[]byte("\x00\x00tail-leaf")},
		Staged:       [][]byte{[]byte("\x00\x00staged-leaf")},
		STH:          STHRecord{Timestamp: 9, TreeSize: 5, Sig: []byte{1}},
		WALOffset:    1234,
		TiledThrough: 4,
		TileSpan:     4,
		TileRoots:    [][32]byte{ht.Root()},
	}
	copy(snap.Root[:], bytes.Repeat([]byte{0x2B}, 32))
	return EncodeSnapshot(snap)
}
