package sct

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// deterministicReader supplies fixed pseudo-entropy so tests are stable.
type deterministicReader struct{ rng *rand.Rand }

func (d *deterministicReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.rng.Intn(256))
	}
	return len(p), nil
}

func testSigner(t *testing.T, seed int64) *Signer {
	t.Helper()
	s, err := NewSigner(&deterministicReader{rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSCTSerializeRoundTrip(t *testing.T) {
	s := &SignedCertificateTimestamp{
		SCTVersion: V1,
		LogID:      LogID{1, 2, 3},
		Timestamp:  1523664000000, // 2018-04-14
		Extensions: []byte{0xde, 0xad},
		Signature: DigitallySigned{
			HashAlgorithm:      hashAlgoSHA256,
			SignatureAlgorithm: sigAlgoECDSA,
			Signature:          []byte{0x30, 0x01, 0x02},
		},
	}
	enc, err := s.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSCT(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.SCTVersion != s.SCTVersion || got.LogID != s.LogID || got.Timestamp != s.Timestamp {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Extensions, s.Extensions) {
		t.Errorf("extensions = %x", got.Extensions)
	}
	if !bytes.Equal(got.Signature.Signature, s.Signature.Signature) {
		t.Errorf("signature = %x", got.Signature.Signature)
	}
}

func TestParseSCTRejectsTruncated(t *testing.T) {
	s := &SignedCertificateTimestamp{SCTVersion: V1}
	enc, _ := s.Serialize()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := ParseSCT(enc[:cut]); err == nil {
			t.Fatalf("ParseSCT accepted %d-byte truncation", cut)
		}
	}
}

func TestParseSCTRejectsTrailing(t *testing.T) {
	s := &SignedCertificateTimestamp{SCTVersion: V1}
	enc, _ := s.Serialize()
	if _, err := ParseSCT(append(enc, 0x00)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestParseSCTRejectsVersion(t *testing.T) {
	s := &SignedCertificateTimestamp{SCTVersion: 2}
	enc, _ := s.Serialize()
	if _, err := ParseSCT(enc); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestListRoundTrip(t *testing.T) {
	var scts []*SignedCertificateTimestamp
	for i := 0; i < 3; i++ {
		scts = append(scts, &SignedCertificateTimestamp{
			SCTVersion: V1,
			LogID:      LogID{byte(i)},
			Timestamp:  uint64(1000 + i),
			Signature:  DigitallySigned{HashAlgorithm: hashAlgoSHA256, SignatureAlgorithm: sigAlgoECDSA, Signature: []byte{byte(i)}},
		})
	}
	enc, err := SerializeList(scts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseList(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d SCTs, want 3", len(got))
	}
	for i, g := range got {
		if g.LogID != scts[i].LogID || g.Timestamp != scts[i].Timestamp {
			t.Errorf("SCT %d mismatch", i)
		}
	}
}

func TestEmptyListRoundTrip(t *testing.T) {
	enc, err := SerializeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseList(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d SCTs, want 0", len(got))
	}
}

func TestSignAndVerifyX509Entry(t *testing.T) {
	signer := testSigner(t, 1)
	entry := X509Entry([]byte("certificate der bytes"))
	s, err := signer.CreateSCT(1523664000000, entry)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, entry); err != nil {
		t.Fatalf("VerifySCT: %v", err)
	}
}

func TestSignAndVerifyPrecertEntry(t *testing.T) {
	signer := testSigner(t, 2)
	var ikh [32]byte
	copy(ikh[:], bytes.Repeat([]byte{0xaa}, 32))
	entry := PrecertEntry(ikh, []byte("tbs certificate bytes"))
	s, err := signer.CreateSCT(1523664000001, entry)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, entry); err != nil {
		t.Fatalf("VerifySCT: %v", err)
	}
}

func TestVerifyRejectsModifiedEntry(t *testing.T) {
	signer := testSigner(t, 3)
	entry := X509Entry([]byte("original"))
	s, err := signer.CreateSCT(1, entry)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, X509Entry([]byte("modified"))); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("err = %v, want ErrInvalidSignature", err)
	}
}

func TestVerifyRejectsModifiedTimestamp(t *testing.T) {
	signer := testSigner(t, 4)
	entry := X509Entry([]byte("cert"))
	s, err := signer.CreateSCT(1000, entry)
	if err != nil {
		t.Fatal(err)
	}
	s.Timestamp = 1001
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, entry); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("err = %v, want ErrInvalidSignature", err)
	}
}

func TestVerifyRejectsWrongLog(t *testing.T) {
	s1, s2 := testSigner(t, 5), testSigner(t, 6)
	entry := X509Entry([]byte("cert"))
	s, err := s1.CreateSCT(1000, entry)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(s2.PublicKey())
	if err := v.VerifySCT(s, entry); err == nil {
		t.Fatal("SCT from log 1 verified against log 2")
	}
}

// The core of the paper's Section 3.4 detector: a precert entry whose TBS
// differs from the one the log signed (e.g. reordered SANs in the final
// certificate) must fail verification.
func TestPrecertTBSMismatchDetected(t *testing.T) {
	signer := testSigner(t, 7)
	var ikh [32]byte
	entry := PrecertEntry(ikh, []byte("SAN: a.example, SAN: b.example"))
	s, err := signer.CreateSCT(1, entry)
	if err != nil {
		t.Fatal(err)
	}
	reordered := PrecertEntry(ikh, []byte("SAN: b.example, SAN: a.example"))
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, reordered); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("reordered TBS must invalidate SCT, got %v", err)
	}
}

func TestEntryTypeDomainSeparation(t *testing.T) {
	// An SCT over an x509_entry must not verify as a precert_entry even if
	// the bytes coincide.
	signer := testSigner(t, 8)
	payload := []byte("identical payload")
	s, err := signer.CreateSCT(1, X509Entry(payload))
	if err != nil {
		t.Fatal(err)
	}
	var ikh [32]byte
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, PrecertEntry(ikh, payload)); err == nil {
		t.Fatal("cross-entry-type verification must fail")
	}
}

// TestIdentityHash pins the streamed identity to SHA-256 over the
// concatenated 0x00 || type || payload, and keeps the two entry types
// apart when their bytes coincide.
func TestIdentityHash(t *testing.T) {
	var ikh [32]byte
	ikh[0] = 7
	tbs := []byte("tbs bytes")
	x509 := X509Entry(append(ikh[:], tbs...))
	pre := PrecertEntry(ikh, tbs)
	for _, c := range []struct {
		entry  CertificateEntry
		concat []byte
	}{
		{x509, append([]byte{0x00, byte(X509LogEntryType)}, x509.Cert...)},
		{pre, append(append([]byte{0x00, byte(PrecertLogEntryType)}, ikh[:]...), tbs...)},
	} {
		if got, want := c.entry.IdentityHash(), sha256.Sum256(c.concat); got != want {
			t.Fatalf("%v identity %x, want %x", c.entry.Type, got, want)
		}
	}
	if x509.IdentityHash() == pre.IdentityHash() {
		t.Fatal("an x509 and a precert entry over the same bytes share an identity")
	}
}

func TestTreeHeadSignature(t *testing.T) {
	signer := testSigner(t, 9)
	th := TreeHead{Timestamp: 1523664000000, TreeSize: 123456, RootHash: sha256.Sum256([]byte("root"))}
	sig, err := signer.SignTreeHead(th)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifyTreeHead(th, sig); err != nil {
		t.Fatalf("VerifyTreeHead: %v", err)
	}
	th.TreeSize++
	if err := v.VerifyTreeHead(th, sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("modified tree size must fail, got %v", err)
	}
}

func TestVerifierRejectsUnknownAlgorithms(t *testing.T) {
	signer := testSigner(t, 10)
	entry := X509Entry([]byte("cert"))
	s, err := signer.CreateSCT(1, entry)
	if err != nil {
		t.Fatal(err)
	}
	s.Signature.HashAlgorithm = 2 // sha1
	v := NewVerifier(signer.PublicKey())
	if err := v.VerifySCT(s, entry); !errors.Is(err, ErrUnsupportedAlgorithm) {
		t.Fatalf("err = %v, want ErrUnsupportedAlgorithm", err)
	}
}

func TestKeyIDStability(t *testing.T) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), &deterministicReader{rng: rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	id1 := KeyID(&priv.PublicKey)
	id2 := KeyID(&priv.PublicKey)
	if id1 != id2 {
		t.Fatal("KeyID not deterministic")
	}
	if id1 == (LogID{}) {
		t.Fatal("KeyID is zero")
	}
}

func TestDeliveryMethodStrings(t *testing.T) {
	if DeliveryEmbedded.String() != "cert" || DeliveryTLSExt.String() != "tls" || DeliveryOCSP.String() != "ocsp" {
		t.Fatal("delivery method names changed; Table 1 rendering depends on them")
	}
	if DeliveryMethod(9).String() == "" {
		t.Fatal("unknown delivery must stringify")
	}
}

func TestLogEntryTypeStrings(t *testing.T) {
	if X509LogEntryType.String() != "x509_entry" || PrecertLogEntryType.String() != "precert_entry" {
		t.Fatal("entry type names")
	}
	if LogEntryType(7).String() == "" {
		t.Fatal("unknown entry type must stringify")
	}
}

// Property: SCT serialization round-trips for arbitrary field values.
func TestQuickSCTRoundTrip(t *testing.T) {
	f := func(logID [32]byte, ts uint64, ext []byte, sig []byte) bool {
		if len(ext) > 0xffff {
			ext = ext[:0xffff]
		}
		if len(sig) > 0xffff {
			sig = sig[:0xffff]
		}
		s := &SignedCertificateTimestamp{
			SCTVersion: V1,
			LogID:      LogID(logID),
			Timestamp:  ts,
			Extensions: ext,
			Signature:  DigitallySigned{HashAlgorithm: hashAlgoSHA256, SignatureAlgorithm: sigAlgoECDSA, Signature: sig},
		}
		enc, err := s.Serialize()
		if err != nil {
			return false
		}
		got, err := ParseSCT(enc)
		if err != nil {
			return false
		}
		return got.LogID == s.LogID && got.Timestamp == ts &&
			bytes.Equal(got.Extensions, ext) && bytes.Equal(got.Signature.Signature, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCreateSCT(b *testing.B) {
	signer, err := NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	entry := X509Entry(bytes.Repeat([]byte{0x42}, 1200))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.CreateSCT(uint64(i), entry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySCT(b *testing.B) {
	signer, err := NewSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	entry := X509Entry(bytes.Repeat([]byte{0x42}, 1200))
	s, err := signer.CreateSCT(1, entry)
	if err != nil {
		b.Fatal(err)
	}
	v := NewVerifier(signer.PublicKey())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.VerifySCT(s, entry); err != nil {
			b.Fatal(err)
		}
	}
}
