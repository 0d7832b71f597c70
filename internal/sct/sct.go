// Package sct implements Signed Certificate Timestamps and Signed Tree
// Heads per RFC 6962, Section 3: the TLS-encoded structures, the inputs
// that logs sign, and ECDSA-P256/SHA-256 signing and verification.
//
// An SCT is a log's promise to include a certificate within its Maximum
// Merge Delay. It can reach a TLS client over three channels, which the
// paper's Section 3 measures separately: embedded in the certificate
// (via the precertificate flow), in the signed_certificate_timestamp TLS
// extension, or inside a stapled OCSP response.
package sct

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"ctrise/internal/tlsenc"
)

// Version is the SCT structure version. Only V1 is defined by RFC 6962.
type Version uint8

// V1 is the RFC 6962 SCT version.
const V1 Version = 0

// LogEntryType distinguishes final certificates from precertificates in
// log entries and signature inputs (RFC 6962 Section 3.1).
type LogEntryType uint16

// Log entry types.
const (
	X509LogEntryType    LogEntryType = 0
	PrecertLogEntryType LogEntryType = 1
)

// String returns the RFC name of the entry type.
func (t LogEntryType) String() string {
	switch t {
	case X509LogEntryType:
		return "x509_entry"
	case PrecertLogEntryType:
		return "precert_entry"
	default:
		return fmt.Sprintf("unknown_entry_type(%d)", uint16(t))
	}
}

// SignatureType labels the signed structure (RFC 6962 Section 3.2).
type SignatureType uint8

// Signature types.
const (
	CertificateTimestampSignatureType SignatureType = 0
	TreeHashSignatureType             SignatureType = 1
)

// DeliveryMethod is how an SCT reached the client. The paper's passive
// analysis (Fig. 2, Table 1) splits all counts by this dimension.
type DeliveryMethod uint8

// Delivery methods.
const (
	DeliveryEmbedded DeliveryMethod = iota // X.509v3 extension in the certificate
	DeliveryTLSExt                         // signed_certificate_timestamp TLS extension
	DeliveryOCSP                           // stapled OCSP response extension
)

// String names the delivery method as used in the paper's tables.
func (d DeliveryMethod) String() string {
	switch d {
	case DeliveryEmbedded:
		return "cert"
	case DeliveryTLSExt:
		return "tls"
	case DeliveryOCSP:
		return "ocsp"
	default:
		return fmt.Sprintf("unknown_delivery(%d)", uint8(d))
	}
}

// LogIDSize is the size of a log ID (SHA-256 of the log's public key).
const LogIDSize = 32

// LogID identifies a log: SHA-256 over the log's DER-encoded public key.
type LogID [LogIDSize]byte

// String returns the hexadecimal log ID.
func (id LogID) String() string { return fmt.Sprintf("%x", id[:]) }

// Hash and signature algorithm identifiers from TLS (RFC 5246 §7.4.1.4.1),
// restricted to the pair RFC 6962 recommends.
const (
	hashAlgoSHA256 = 4
	sigAlgoECDSA   = 3
)

// DigitallySigned is the TLS DigitallySigned structure restricted to
// SHA-256/ECDSA.
type DigitallySigned struct {
	HashAlgorithm      uint8
	SignatureAlgorithm uint8
	Signature          []byte // ASN.1 DER-encoded ECDSA signature
}

// SignedCertificateTimestamp is the RFC 6962 Section 3.2 structure.
type SignedCertificateTimestamp struct {
	SCTVersion Version
	LogID      LogID
	Timestamp  uint64 // milliseconds since the UNIX epoch
	Extensions []byte
	Signature  DigitallySigned
}

// Errors returned by this package.
var (
	ErrUnsupportedVersion   = errors.New("sct: unsupported SCT version")
	ErrUnsupportedAlgorithm = errors.New("sct: unsupported signature algorithm")
	ErrInvalidSignature     = errors.New("sct: signature verification failed")
	ErrMalformed            = errors.New("sct: malformed structure")
)

// Serialize encodes the SCT in its RFC 6962 TLS wire form, as carried in
// the X.509 SCT-list extension, TLS extension, and OCSP extension.
func (s *SignedCertificateTimestamp) Serialize() ([]byte, error) {
	b := tlsenc.NewBuilder(128)
	b.AddUint8(uint8(s.SCTVersion))
	b.AddBytes(s.LogID[:])
	b.AddUint64(s.Timestamp)
	b.AddUint16Vector(s.Extensions)
	b.AddUint8(s.Signature.HashAlgorithm)
	b.AddUint8(s.Signature.SignatureAlgorithm)
	b.AddUint16Vector(s.Signature.Signature)
	return b.Bytes()
}

// ParseSCT decodes a single serialized SCT.
func ParseSCT(data []byte) (*SignedCertificateTimestamp, error) {
	r := tlsenc.NewReader(data)
	s, err := readSCT(r)
	if err != nil {
		return nil, err
	}
	if err := r.ExpectEmpty(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return s, nil
}

func readSCT(r *tlsenc.Reader) (*SignedCertificateTimestamp, error) {
	var s SignedCertificateTimestamp
	s.SCTVersion = Version(r.Uint8())
	copy(s.LogID[:], r.Bytes(LogIDSize))
	s.Timestamp = r.Uint64()
	s.Extensions = r.Uint16Vector()
	s.Signature.HashAlgorithm = r.Uint8()
	s.Signature.SignatureAlgorithm = r.Uint8()
	s.Signature.Signature = r.Uint16Vector()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if s.SCTVersion != V1 {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedVersion, s.SCTVersion)
	}
	return &s, nil
}

// SerializeList encodes a SignedCertificateTimestampList (RFC 6962
// Section 3.3): a uint16-length list of uint16-length serialized SCTs.
// This is the payload of both the X.509 extension and the TLS extension.
func SerializeList(scts []*SignedCertificateTimestamp) ([]byte, error) {
	inner := tlsenc.NewBuilder(128 * len(scts))
	for _, s := range scts {
		enc, err := s.Serialize()
		if err != nil {
			return nil, err
		}
		inner.AddUint16Vector(enc)
	}
	payload, err := inner.Bytes()
	if err != nil {
		return nil, err
	}
	outer := tlsenc.NewBuilder(len(payload) + 2)
	outer.AddUint16Vector(payload)
	return outer.Bytes()
}

// ParseList decodes a SignedCertificateTimestampList.
func ParseList(data []byte) ([]*SignedCertificateTimestamp, error) {
	r := tlsenc.NewReader(data)
	listBytes := r.Uint16Vector()
	if err := r.ExpectEmpty(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	lr := tlsenc.NewReader(listBytes)
	var out []*SignedCertificateTimestamp
	for lr.Remaining() > 0 {
		sctBytes := lr.Uint16Vector()
		if err := lr.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		s, err := ParseSCT(sctBytes)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// CertificateEntry is the material a log signs over for one entry: either
// the full certificate bytes (x509_entry) or the issuer key hash plus the
// to-be-signed bytes of the precertificate (precert_entry).
type CertificateEntry struct {
	Type LogEntryType
	// Cert holds the certificate bytes for X509LogEntryType entries.
	Cert []byte
	// IssuerKeyHash and TBS are set for PrecertLogEntryType entries.
	IssuerKeyHash [32]byte
	TBS           []byte
}

// X509Entry builds an x509_entry over cert bytes.
func X509Entry(cert []byte) CertificateEntry {
	return CertificateEntry{Type: X509LogEntryType, Cert: cert}
}

// PrecertEntry builds a precert_entry over the issuer key hash and TBS.
func PrecertEntry(issuerKeyHash [32]byte, tbs []byte) CertificateEntry {
	return CertificateEntry{Type: PrecertLogEntryType, IssuerKeyHash: issuerKeyHash, TBS: tbs}
}

// IdentityHash is the entry's content identity: SHA-256(0x00 || type ||
// payload), the payload being the certificate, or the issuer key hash
// followed by the TBS. It is the value an RFC 6962 leaf hash would give
// over that concatenation, streamed into one digest so no payload buffer
// is built. A log dedupes and indexes submissions by it; a frontend
// ranks backends by its first 8 bytes, so both agree on what one
// submission is.
func (ce CertificateEntry) IdentityHash() [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00, byte(ce.Type)})
	if ce.Type == PrecertLogEntryType {
		h.Write(ce.IssuerKeyHash[:])
		h.Write(ce.TBS)
	} else {
		h.Write(ce.Cert)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// signatureInput builds the digitally-signed struct for an SCT
// (RFC 6962 Section 3.2).
func signatureInput(version Version, timestamp uint64, entry CertificateEntry, extensions []byte) ([]byte, error) {
	b := tlsenc.NewBuilder(64 + len(entry.Cert) + len(entry.TBS))
	b.AddUint8(uint8(version))
	b.AddUint8(uint8(CertificateTimestampSignatureType))
	b.AddUint64(timestamp)
	b.AddUint16(uint16(entry.Type))
	switch entry.Type {
	case X509LogEntryType:
		b.AddUint24Vector(entry.Cert)
	case PrecertLogEntryType:
		b.AddBytes(entry.IssuerKeyHash[:])
		b.AddUint24Vector(entry.TBS)
	default:
		return nil, fmt.Errorf("%w: entry type %d", ErrMalformed, entry.Type)
	}
	b.AddUint16Vector(extensions)
	return b.Bytes()
}

// TreeHead is the data covered by a Signed Tree Head signature.
type TreeHead struct {
	Timestamp uint64 // milliseconds since the UNIX epoch
	TreeSize  uint64
	RootHash  [32]byte
}

// treeHeadSignatureInput builds the digitally-signed struct for an STH
// (RFC 6962 Section 3.5).
func treeHeadSignatureInput(th TreeHead) []byte {
	b := tlsenc.NewBuilder(2 + 8 + 8 + 32)
	b.AddUint8(uint8(V1))
	b.AddUint8(uint8(TreeHashSignatureType))
	b.AddUint64(th.Timestamp)
	b.AddUint64(th.TreeSize)
	b.AddBytes(th.RootHash[:])
	return b.MustBytes()
}

// Signer holds a log's ECDSA P-256 key and derived log ID and produces
// SCTs and STH signatures.
type Signer struct {
	priv  *ecdsa.PrivateKey
	logID LogID
}

// NewSigner generates a fresh P-256 signing key using entropy from r
// (crypto/rand.Reader in production; a deterministic reader in tests).
func NewSigner(r io.Reader) (*Signer, error) {
	if r == nil {
		r = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), r)
	if err != nil {
		return nil, fmt.Errorf("sct: generating key: %w", err)
	}
	return NewSignerFromKey(priv), nil
}

// NewSignerFromKey wraps an existing private key.
func NewSignerFromKey(priv *ecdsa.PrivateKey) *Signer {
	return &Signer{priv: priv, logID: KeyID(&priv.PublicKey)}
}

// KeyID computes the RFC 6962 log ID for a public key: SHA-256 over the
// uncompressed point encoding (a stand-in for the DER SPKI; stable and
// collision-free for our purposes and computable without ASN.1).
func KeyID(pub *ecdsa.PublicKey) LogID {
	raw := elliptic.Marshal(pub.Curve, pub.X, pub.Y)
	return LogID(sha256.Sum256(raw))
}

// LogID returns the signer's log ID.
func (s *Signer) LogID() LogID { return s.logID }

// PublicKey returns the verification key.
func (s *Signer) PublicKey() *ecdsa.PublicKey { return &s.priv.PublicKey }

// CreateSCT issues an SCT over entry at the given timestamp.
func (s *Signer) CreateSCT(timestamp uint64, entry CertificateEntry) (*SignedCertificateTimestamp, error) {
	sct := &SignedCertificateTimestamp{
		SCTVersion: V1,
		LogID:      s.logID,
		Timestamp:  timestamp,
	}
	input, err := signatureInput(sct.SCTVersion, timestamp, entry, sct.Extensions)
	if err != nil {
		return nil, err
	}
	sig, err := s.sign(input)
	if err != nil {
		return nil, err
	}
	sct.Signature = sig
	return sct, nil
}

// SignTreeHead signs a tree head.
func (s *Signer) SignTreeHead(th TreeHead) (DigitallySigned, error) {
	return s.sign(treeHeadSignatureInput(th))
}

func (s *Signer) sign(msg []byte) (DigitallySigned, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, s.priv, digest[:])
	if err != nil {
		return DigitallySigned{}, fmt.Errorf("sct: signing: %w", err)
	}
	return DigitallySigned{
		HashAlgorithm:      hashAlgoSHA256,
		SignatureAlgorithm: sigAlgoECDSA,
		Signature:          sig,
	}, nil
}

// Verifier checks SCTs and STH signatures against a log's public key.
type Verifier struct {
	pub   *ecdsa.PublicKey
	logID LogID
}

// NewVerifier builds a verifier for the given log public key.
func NewVerifier(pub *ecdsa.PublicKey) *Verifier {
	return &Verifier{pub: pub, logID: KeyID(pub)}
}

// LogID returns the log ID the verifier checks against.
func (v *Verifier) LogID() LogID { return v.logID }

// VerifySCT checks that sct correctly signs entry with this log's key and
// that the log ID matches.
func (v *Verifier) VerifySCT(s *SignedCertificateTimestamp, entry CertificateEntry) error {
	if s.SCTVersion != V1 {
		return fmt.Errorf("%w: %d", ErrUnsupportedVersion, s.SCTVersion)
	}
	if s.LogID != v.logID {
		return fmt.Errorf("%w: SCT log ID %s != verifier log ID %s", ErrInvalidSignature, s.LogID, v.logID)
	}
	input, err := signatureInput(s.SCTVersion, s.Timestamp, entry, s.Extensions)
	if err != nil {
		return err
	}
	return v.verify(input, s.Signature)
}

// VerifyTreeHead checks an STH signature.
func (v *Verifier) VerifyTreeHead(th TreeHead, sig DigitallySigned) error {
	return v.verify(treeHeadSignatureInput(th), sig)
}

func (v *Verifier) verify(msg []byte, sig DigitallySigned) error {
	if sig.HashAlgorithm != hashAlgoSHA256 || sig.SignatureAlgorithm != sigAlgoECDSA {
		return fmt.Errorf("%w: hash=%d sig=%d", ErrUnsupportedAlgorithm, sig.HashAlgorithm, sig.SignatureAlgorithm)
	}
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(v.pub, digest[:], sig.Signature) {
		return ErrInvalidSignature
	}
	return nil
}
