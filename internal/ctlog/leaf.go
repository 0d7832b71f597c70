package ctlog

import (
	"fmt"

	"ctrise/internal/merkle"
	"ctrise/internal/sct"
	"ctrise/internal/tlsenc"
)

// MerkleLeafType per RFC 6962 Section 3.4. Only timestamped_entry exists.
const timestampedEntryLeafType = 0

// Entry is one sequenced log entry.
type Entry struct {
	// Index is the entry's position in the log.
	Index uint64
	// Timestamp is the SCT timestamp in milliseconds since the epoch.
	Timestamp uint64
	// Type distinguishes x509_entry from precert_entry.
	Type sct.LogEntryType
	// Cert holds the certificate bytes for x509 entries and the defanged
	// TBS bytes for precert entries (RFC 6962 stores the TBS in the leaf).
	Cert []byte
	// IssuerKeyHash is set for precert entries.
	IssuerKeyHash [32]byte
	// Extensions are the SCT extensions covered by the leaf.
	Extensions []byte

	// idHash, idKey, and leafHash are stamped by the log at staging
	// time so the sequencer can order and integrate the batch without
	// rehashing: idHash is the dedupe identity, idKey its first 8 bytes
	// as a cheap sort key, leafHash the Merkle leaf hash. All are
	// meaningless on client-parsed entries, and unset on entries read
	// from sealed tiles: sealed dedupe and proof lookups go through the
	// tiles' blooms, index and hash files, not these fields.
	idHash   merkle.Hash
	idKey    uint64
	leafHash merkle.Hash

	// leaf is the entry's canonical MerkleTreeLeaf encoding, stamped by
	// parseLeaf wherever the log already holds those bytes: add builds
	// them to hash and WAL-append, and sealed reads, recovery and clients
	// read them. Cert and Extensions alias it, so keeping it costs no
	// second copy.
	// It is valid only while leafOf points at this very Entry: a struct
	// copy (how internal/chaos tampers with entries) carries the slice
	// along but not the address, and falls back to encoding its fields.
	leaf   []byte
	leafOf *Entry
}

// leafBytes returns the entry's MerkleTreeLeaf encoding: the stamped
// bytes when they are this entry's own, a fresh encoding of the fields
// otherwise. The result may alias shared immutable state (a cached tile
// page) and must be treated as read-only.
func (e *Entry) leafBytes() ([]byte, error) {
	if e.leafOf == e {
		return e.leaf, nil
	}
	return e.MerkleTreeLeaf()
}

// MerkleTreeLeaf returns the RFC 6962 Section 3.4 leaf encoding:
//
//	struct {
//	    Version version;              // v1(0)
//	    MerkleLeafType leaf_type;     // timestamped_entry(0)
//	    TimestampedEntry timestamped_entry;
//	}
//
// It always encodes the current field values into a buffer the caller
// owns, whatever bytes the log stamped on the entry.
func (e *Entry) MerkleTreeLeaf() ([]byte, error) {
	b := tlsenc.NewBuilder(64 + len(e.Cert))
	b.AddUint8(uint8(sct.V1))
	b.AddUint8(timestampedEntryLeafType)
	b.AddUint64(e.Timestamp)
	b.AddUint16(uint16(e.Type))
	switch e.Type {
	case sct.X509LogEntryType:
		b.AddUint24Vector(e.Cert)
	case sct.PrecertLogEntryType:
		b.AddBytes(e.IssuerKeyHash[:])
		b.AddUint24Vector(e.Cert)
	default:
		return nil, fmt.Errorf("ctlog: unknown entry type %d", e.Type)
	}
	b.AddUint16Vector(e.Extensions)
	return b.Bytes()
}

// LeafHash returns the Merkle leaf hash of the entry.
func (e *Entry) LeafHash() (merkle.Hash, error) {
	leaf, err := e.MerkleTreeLeaf()
	if err != nil {
		return merkle.Hash{}, err
	}
	return merkle.HashLeaf(leaf), nil
}

// ParseMerkleTreeLeaf decodes a leaf_input back into an Entry (without an
// index, which get-entries conveys positionally). The entry's byte
// fields alias data, which the caller must not modify afterwards.
func ParseMerkleTreeLeaf(data []byte) (*Entry, error) {
	var e Entry
	if err := e.parseLeaf(data); err != nil {
		return nil, err
	}
	return &e, nil
}

// parseLeaf is ParseMerkleTreeLeaf into an entry the caller allocated
// (parseLeaves parses a sealed read into one slab). e must be zero and
// is unusable after an error.
func (e *Entry) parseLeaf(data []byte) error {
	r := tlsenc.NewReader(data)
	version := r.Uint8()
	leafType := r.Uint8()
	e.Timestamp = r.Uint64()
	e.Type = sct.LogEntryType(r.Uint16())
	switch e.Type {
	case sct.X509LogEntryType:
		e.Cert = r.Uint24Vector()
	case sct.PrecertLogEntryType:
		copy(e.IssuerKeyHash[:], r.Bytes(32))
		e.Cert = r.Uint24Vector()
	default:
		if r.Err() == nil {
			return fmt.Errorf("ctlog: unknown entry type %d", e.Type)
		}
	}
	e.Extensions = r.Uint16Vector()
	if err := r.ExpectEmpty(); err != nil {
		return fmt.Errorf("ctlog: malformed leaf: %w", err)
	}
	if version != uint8(sct.V1) {
		return fmt.Errorf("ctlog: unsupported leaf version %d", version)
	}
	if leafType != timestampedEntryLeafType {
		return fmt.Errorf("ctlog: unsupported leaf type %d", leafType)
	}
	// The encoding has no slack (fixed version and leaf type, length-
	// prefixed vectors, nothing trailing), so data is exactly what
	// MerkleTreeLeaf would rebuild from the parsed fields.
	e.leaf, e.leafOf = data, e
	return nil
}

// SignatureEntry converts the log entry into the structure an SCT
// signature covers, for verification by monitors.
func (e *Entry) SignatureEntry() sct.CertificateEntry {
	if e.Type == sct.PrecertLogEntryType {
		return sct.PrecertEntry(e.IssuerKeyHash, e.Cert)
	}
	return sct.X509Entry(e.Cert)
}
