// Package storage is the durability layer under the CT log: an
// append-only, length-prefixed, checksummed write-ahead log for staged
// submissions plus atomic full-state snapshots and sealed tiles, with
// the torn-tail recovery semantics a crash-safe log needs. It is the
// only package that creates, writes, links or fsyncs durable state:
// the auditor's verified-STH chains are AppendLogs like the WAL, and
// ctlogd's signing key is created with WriteFileExclusive.
//
// # Codec
//
// Every durable file is a stream of self-delimiting records over an
// 8-byte magic header:
//
//	record := type(1) || length(4, big-endian) || payload || crc32c(4)
//
// The CRC (Castagnoli) covers type, length, and payload, so a flipped
// bit anywhere in a record is detected, and a record length can never
// send the reader off into garbage unnoticed. The same framing carries
// the WAL (entry / seal / STH records), the snapshot file, the
// sealed tile files and the auditor's verified-STH chains — one codec,
// four consumers. The two append-only ones, the WAL and the audit
// chains, share one implementation too: AppendLog.
//
// # Recovery semantics
//
// ScanRecords is the single arbiter of what survives a crash: it walks a
// byte stream and returns every whole, checksum-valid record before the
// first torn or corrupt one, plus the byte offset where validity ends. A
// crash mid-append therefore costs exactly the unacknowledged tail;
// anything before the valid end is replayed, anything after is
// discarded. OpenAppendLog finds the valid end but leaves the tail in
// place; its owner cuts it with AppendLog.Truncate before the first
// append — the store in CommitRecovery or ResetWAL, once recovery has
// decided whether a snapshot covers more, the audit chain right at
// open. Semantic divergence — a seal or STH that does not match the
// replayed tree — is the caller's (ctlog's) job to detect and fail
// loudly on.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ctrise/internal/tlsenc"
)

// Errors returned by the storage layer.
var (
	// ErrCorrupt is returned when a durable file fails structural
	// validation beyond an ordinary torn tail: bad magic, an invalid
	// record in a snapshot, or trailing garbage where none is allowed.
	ErrCorrupt = errors.New("storage: corrupt file")
	// ErrClosed is returned for operations on a closed store.
	ErrClosed = errors.New("storage: store closed")
)

// RecordType tags a record's payload. The storage layer treats payloads
// as opaque; these tags exist so replay can dispatch without sniffing.
type RecordType uint8

// WAL record types. Values are part of the on-disk format; never reuse.
const (
	// RecordEntry carries one staged submission: the RFC 6962
	// MerkleTreeLeaf encoding of the entry (timestamp, type, payload,
	// extensions) — everything needed to reconstruct the entry, its
	// identity hash, and its Merkle leaf hash.
	RecordEntry RecordType = 1
	// RecordSeal marks a sequencing step: every entry record before it
	// (since the previous seal) was integrated as one batch, in
	// canonical order, yielding the recorded tree size and root. It is
	// the snapshot cursor fsynced at each Sequence.
	RecordSeal RecordType = 2
	// RecordSTH records a published signed tree head.
	RecordSTH RecordType = 3
	// RecordSnapMeta heads a snapshot file: sequenced and staged entry
	// counts, the tree root, the WAL offset replay resumes from, and (v2)
	// the tiled-through size and tile span.
	RecordSnapMeta RecordType = 5
	// RecordSnapTiles follows the snapshot meta: the subtree root of
	// every sealed tile, in tile order. The recovery path rebuilds the
	// tree's spine from these without reading a single tile file.
	RecordSnapTiles RecordType = 6
)

// Record type 4 is reserved: it framed the retired unstage record, a
// WAL tombstone that rolled a staged entry back after a signing
// failure. No later record type may reuse it; WAL replay refuses it as
// an unknown type.
//
// Record types 16–20 and the magic "CTHRV" are reserved: they framed
// the retired ecosystem harvest checkpoint files. No later file type
// may reuse them, so an old checkpoint can never decode as something
// else.

// Audit record types (the auditor's verified-STH chain rides the same
// framing; see internal/auditor). An audit chain file is a stream of
// RecordSTH records — each a tree head the auditor cryptographically
// verified, in verification order — interleaved with RecordAuditCursor
// records carrying the first entry index not yet consumed, so a
// restarted auditor resumes from its durable verification frontier
// instead of re-verifying (and re-alerting) from scratch.
const (
	RecordAuditCursor RecordType = 24
)

// Record is one decoded frame: a type tag and its payload bytes.
type Record struct {
	Type    RecordType
	Payload []byte
}

// File magics. 8 bytes: name, NUL padding, format version.
var (
	WALMagic = []byte{'C', 'T', 'W', 'A', 'L', 0, 0, 1}
	// SnapshotMagic version 2: the meta record grew tiled-through and
	// tile-span fields and a tile-roots record follows it, so sealed
	// entries can live in tile files instead of the snapshot body.
	SnapshotMagic = []byte{'C', 'T', 'S', 'N', 'P', 0, 0, 2}
	// AuditMagic heads per-log auditor verified-STH chain files.
	AuditMagic = []byte{'C', 'T', 'A', 'U', 'D', 0, 0, 1}
)

// MagicLen is the length of every file header.
const MagicLen = 8

// recordOverhead is the framing cost per record: type + length + crc.
const recordOverhead = 1 + 4 + 4

// MaxRecordPayload bounds a single record. Certificates are a few KB;
// harvest name chunks a few hundred KB. Anything near this limit in a
// length field is treated as corruption rather than allocated.
const MaxRecordPayload = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends one framed record to buf and returns the extended
// slice. It is the single encoder for every durable file. The checksum
// covers the framed header and payload, read where they now sit in buf.
func AppendRecord(buf []byte, typ RecordType, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// ReadRecord decodes one record from the front of data. It returns the
// record, the number of bytes consumed, and an error when the front of
// data is not a whole, checksum-valid record (torn and corrupt frames
// are indistinguishable at this layer and both return an error). The
// returned payload aliases data.
func ReadRecord(data []byte) (Record, int, error) {
	if len(data) < recordOverhead {
		return Record{}, 0, fmt.Errorf("%w: %d bytes remaining, record needs at least %d", ErrCorrupt, len(data), recordOverhead)
	}
	typ := RecordType(data[0])
	n := binary.BigEndian.Uint32(data[1:5])
	if n > MaxRecordPayload {
		return Record{}, 0, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	total := recordOverhead + int(n)
	if len(data) < total {
		return Record{}, 0, fmt.Errorf("%w: record of %d bytes torn at %d", ErrCorrupt, total, len(data))
	}
	payload := data[5 : 5+n]
	want := binary.BigEndian.Uint32(data[5+n : 5+n+4])
	if got := crc32.Checksum(data[:5+n], crcTable); got != want {
		return Record{}, 0, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	return Record{Type: typ, Payload: payload}, total, nil
}

// ScanRecords walks a record stream (no magic header) and returns every
// whole, checksum-valid record before the first invalid byte, plus the
// offset where validity ends. It never fails: a torn or corrupt frame
// simply ends the valid prefix, which is exactly the crash-recovery
// contract (everything after the last durable record is discarded).
func ScanRecords(data []byte) (recs []Record, valid int) {
	off := 0
	for off < len(data) {
		rec, n, err := ReadRecord(data[off:])
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off
}

// SealRecord is the decoded form of RecordSeal.
type SealRecord struct {
	TreeSize uint64
	Root     [32]byte
}

// EncodeSeal encodes a seal payload.
func EncodeSeal(s SealRecord) []byte {
	b := tlsenc.NewBuilder(8 + 32)
	b.AddUint64(s.TreeSize)
	b.AddBytes(s.Root[:])
	return b.MustBytes()
}

// DecodeSeal decodes a seal payload.
func DecodeSeal(payload []byte) (SealRecord, error) {
	r := tlsenc.NewReader(payload)
	var s SealRecord
	s.TreeSize = r.Uint64()
	copy(s.Root[:], r.Bytes(32))
	if err := r.ExpectEmpty(); err != nil {
		return SealRecord{}, fmt.Errorf("%w: seal: %v", ErrCorrupt, err)
	}
	return s, nil
}

// STHRecord is the decoded form of RecordSTH: a published tree head and
// the exact signature bytes that covered it, so a restarted log serves
// the same STH it served before the crash.
type STHRecord struct {
	Timestamp uint64
	TreeSize  uint64
	Root      [32]byte
	// Sig is the serialized DigitallySigned structure.
	Sig []byte
}

// EncodeSTH encodes an STH payload.
func EncodeSTH(s STHRecord) []byte {
	b := tlsenc.NewBuilder(8 + 8 + 32 + 2 + len(s.Sig))
	b.AddUint64(s.Timestamp)
	b.AddUint64(s.TreeSize)
	b.AddBytes(s.Root[:])
	b.AddUint16Vector(s.Sig)
	out, err := b.Bytes()
	if err != nil {
		// Signatures are ~100 bytes; a uint16 vector overflow indicates
		// memory corruption, not an encodable state.
		panic(err)
	}
	return out
}

// DecodeSTH decodes an STH payload.
func DecodeSTH(payload []byte) (STHRecord, error) {
	r := tlsenc.NewReader(payload)
	var s STHRecord
	s.Timestamp = r.Uint64()
	s.TreeSize = r.Uint64()
	copy(s.Root[:], r.Bytes(32))
	s.Sig = r.Uint16Vector()
	if err := r.ExpectEmpty(); err != nil {
		return STHRecord{}, fmt.Errorf("%w: sth: %v", ErrCorrupt, err)
	}
	return s, nil
}

// EncodeAuditCursor encodes an audit cursor payload: the first entry
// index the auditor has not yet consumed.
func EncodeAuditCursor(next uint64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, next)
	return out
}

// DecodeAuditCursor decodes an audit cursor payload.
func DecodeAuditCursor(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: audit cursor payload is %d bytes, want 8", ErrCorrupt, len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}
