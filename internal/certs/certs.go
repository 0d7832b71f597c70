// Package certs models TLS certificates for the CT ecosystem simulation.
//
// Two representations coexist:
//
//   - A compact synthetic codec (this file) used for bulk simulation: the
//     paper's pipelines process hundreds of millions of certificates, and
//     only names, issuer, validity, and the CT-relevant extensions matter
//     to them. The encoding is deterministic and order-preserving, so the
//     CA bugs of Section 3.4 (reordered SANs, reordered extensions,
//     swapped names) change the TBS bytes exactly as they would in DER.
//
//   - A bridge to crypto/x509 (x509bridge.go) that emits and parses real
//     DER certificates carrying the standard SCT-list and precertificate
//     poison extensions, used on crypto-heavy paths (honeypot, quickstart)
//     and to validate the synthetic codec against reality.
//
// The TBS ("to be signed") form used for SCT issuance and verification
// follows RFC 6962 Section 3.2: the certificate with the poison and
// SCT-list extensions removed, everything else byte-identical.
package certs

import (
	"errors"
	"fmt"
	"time"

	"ctrise/internal/sct"
	"ctrise/internal/tlsenc"
)

// X.509v3 extension OIDs relevant to CT, as dotted strings.
const (
	// OIDSCTList identifies the embedded SCT list extension (RFC 6962 §3.3).
	OIDSCTList = "1.3.6.1.4.1.11129.2.4.2"
	// OIDPoison identifies the critical precertificate poison extension
	// (RFC 6962 §3.1). Its presence makes a certificate a precertificate.
	OIDPoison = "1.3.6.1.4.1.11129.2.4.3"
)

// Errors returned by this package.
var (
	ErrMalformed    = errors.New("certs: malformed certificate encoding")
	ErrNoSCTList    = errors.New("certs: certificate has no SCT list extension")
	ErrFieldTooLong = errors.New("certs: field exceeds encodable length")
)

// Name is a reduced distinguished name.
type Name struct {
	CommonName   string
	Organization string
}

// Extension is an ordered X.509v3 extension. Order matters: one of the
// misissuance classes the paper reports (D-TRUST) is a CA whose final
// certificates reordered extensions relative to the precertificate.
type Extension struct {
	OID      string
	Critical bool
	Value    []byte
}

// Certificate is the synthetic certificate model.
type Certificate struct {
	SerialNumber uint64
	Issuer       Name
	Subject      Name
	// DNSNames are the Subject Alternative Name DNS entries, in order.
	DNSNames []string
	// IPAddresses are SAN IP entries (textual), in order. The GlobalSign
	// bug of Section 3.4 involved certificates mixing DNS and IP SANs.
	IPAddresses []string
	NotBefore   time.Time
	NotAfter    time.Time
	// Extensions in order, including the SCT list and poison extensions
	// when present.
	Extensions []Extension
}

// encodingVersion guards the synthetic codec format.
const encodingVersion = 1

// IsPrecert reports whether the poison extension is present.
func (c *Certificate) IsPrecert() bool {
	return c.findExtension(OIDPoison) >= 0
}

// HasSCTList reports whether the SCT list extension is present.
func (c *Certificate) HasSCTList() bool {
	return c.findExtension(OIDSCTList) >= 0
}

func (c *Certificate) findExtension(oid string) int {
	for i, e := range c.Extensions {
		if e.OID == oid {
			return i
		}
	}
	return -1
}

// SCTs parses and returns the embedded SCT list.
func (c *Certificate) SCTs() ([]*sct.SignedCertificateTimestamp, error) {
	i := c.findExtension(OIDSCTList)
	if i < 0 {
		return nil, ErrNoSCTList
	}
	return sct.ParseList(c.Extensions[i].Value)
}

// SetSCTs replaces (or adds) the SCT list extension with the given SCTs.
func (c *Certificate) SetSCTs(list []*sct.SignedCertificateTimestamp) error {
	payload, err := sct.SerializeList(list)
	if err != nil {
		return err
	}
	ext := Extension{OID: OIDSCTList, Value: payload}
	if i := c.findExtension(OIDSCTList); i >= 0 {
		c.Extensions[i] = ext
	} else {
		c.Extensions = append(c.Extensions, ext)
	}
	return nil
}

// AddPoison marks the certificate as a precertificate.
func (c *Certificate) AddPoison() {
	if !c.IsPrecert() {
		c.Extensions = append(c.Extensions, Extension{OID: OIDPoison, Critical: true, Value: []byte{0x05, 0x00}})
	}
}

// Names returns every DNS name the certificate asserts: the subject CN (if
// it looks like a DNS name, i.e. non-empty) followed by the SANs, without
// deduplication. Section 4's leakage analysis consumes this.
func (c *Certificate) Names() []string {
	out := make([]string, 0, 1+len(c.DNSNames))
	if c.Subject.CommonName != "" {
		out = append(out, c.Subject.CommonName)
	}
	out = append(out, c.DNSNames...)
	return out
}

// Clone returns a deep copy.
func (c *Certificate) Clone() *Certificate {
	out := *c
	out.DNSNames = append([]string(nil), c.DNSNames...)
	out.IPAddresses = append([]string(nil), c.IPAddresses...)
	out.Extensions = make([]Extension, len(c.Extensions))
	for i, e := range c.Extensions {
		out.Extensions[i] = Extension{OID: e.OID, Critical: e.Critical, Value: append([]byte(nil), e.Value...)}
	}
	return &out
}

// Encode serializes the certificate with the deterministic synthetic codec.
func (c *Certificate) Encode() ([]byte, error) {
	b := tlsenc.NewBuilder(256)
	b.AddUint8(encodingVersion)
	b.AddUint64(c.SerialNumber)
	if err := addString16(b, c.Issuer.CommonName); err != nil {
		return nil, err
	}
	if err := addString16(b, c.Issuer.Organization); err != nil {
		return nil, err
	}
	if err := addString16(b, c.Subject.CommonName); err != nil {
		return nil, err
	}
	if err := addString16(b, c.Subject.Organization); err != nil {
		return nil, err
	}
	b.AddUint64(uint64(c.NotBefore.UnixMilli()))
	b.AddUint64(uint64(c.NotAfter.UnixMilli()))
	if len(c.DNSNames) > 0xffff || len(c.IPAddresses) > 0xffff || len(c.Extensions) > 0xffff {
		return nil, ErrFieldTooLong
	}
	b.AddUint16(uint16(len(c.DNSNames)))
	for _, n := range c.DNSNames {
		if err := addString16(b, n); err != nil {
			return nil, err
		}
	}
	b.AddUint16(uint16(len(c.IPAddresses)))
	for _, ip := range c.IPAddresses {
		if err := addString16(b, ip); err != nil {
			return nil, err
		}
	}
	b.AddUint16(uint16(len(c.Extensions)))
	for _, e := range c.Extensions {
		if err := addString16(b, e.OID); err != nil {
			return nil, err
		}
		if e.Critical {
			b.AddUint8(1)
		} else {
			b.AddUint8(0)
		}
		b.AddUint24Vector(e.Value)
	}
	return b.Bytes()
}

func addString16(b *tlsenc.Builder, s string) error {
	if len(s) > 0xffff {
		return fmt.Errorf("%w: %d bytes", ErrFieldTooLong, len(s))
	}
	b.AddUint16Vector([]byte(s))
	return nil
}

// Decode parses a certificate from the synthetic codec.
func Decode(data []byte) (*Certificate, error) {
	r := tlsenc.NewReader(data)
	if v := r.Uint8(); v != encodingVersion {
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, r.Err())
		}
		return nil, fmt.Errorf("%w: codec version %d", ErrMalformed, v)
	}
	var c Certificate
	c.SerialNumber = r.Uint64()
	c.Issuer.CommonName = string(r.Uint16Vector())
	c.Issuer.Organization = string(r.Uint16Vector())
	c.Subject.CommonName = string(r.Uint16Vector())
	c.Subject.Organization = string(r.Uint16Vector())
	c.NotBefore = time.UnixMilli(int64(r.Uint64())).UTC()
	c.NotAfter = time.UnixMilli(int64(r.Uint64())).UTC()
	nDNS := int(r.Uint16())
	for i := 0; i < nDNS && r.Err() == nil; i++ {
		c.DNSNames = append(c.DNSNames, string(r.Uint16Vector()))
	}
	nIP := int(r.Uint16())
	for i := 0; i < nIP && r.Err() == nil; i++ {
		c.IPAddresses = append(c.IPAddresses, string(r.Uint16Vector()))
	}
	nExt := int(r.Uint16())
	for i := 0; i < nExt && r.Err() == nil; i++ {
		var e Extension
		e.OID = string(r.Uint16Vector())
		e.Critical = r.Uint8() == 1
		e.Value = r.Uint24Vector()
		c.Extensions = append(c.Extensions, e)
	}
	if err := r.ExpectEmpty(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return &c, nil
}

// TBSForSCT returns the RFC 6962 "to be signed" bytes used as the SCT
// signature input for precert entries: the certificate with the poison
// and SCT-list extensions removed, all other fields and their order
// untouched. Both the CA (when requesting an SCT) and the verifier (when
// reconstructing the TBS from a final certificate, Section 3.4) use this.
func (c *Certificate) TBSForSCT() ([]byte, error) {
	stripped := c.Clone()
	kept := stripped.Extensions[:0]
	for _, e := range stripped.Extensions {
		if e.OID == OIDPoison || e.OID == OIDSCTList {
			continue
		}
		kept = append(kept, e)
	}
	stripped.Extensions = kept
	return stripped.Encode()
}

// String renders a compact human-readable summary.
func (c *Certificate) String() string {
	kind := "cert"
	if c.IsPrecert() {
		kind = "precert"
	}
	return fmt.Sprintf("%s serial=%d subject=%q issuer=%q sans=%d", kind, c.SerialNumber, c.Subject.CommonName, c.Issuer.CommonName, len(c.DNSNames))
}
