package certs

import (
	"bytes"
	"crypto/x509"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ctrise/internal/sct"
)

func sampleCert() *Certificate {
	return &Certificate{
		SerialNumber: 0xdeadbeef,
		Issuer:       Name{CommonName: "Let's Encrypt Authority X3", Organization: "Let's Encrypt"},
		Subject:      Name{CommonName: "www.example.org"},
		DNSNames:     []string{"www.example.org", "example.org", "api.example.org"},
		NotBefore:    time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC),
		Extensions: []Extension{
			{OID: "2.5.29.15", Critical: true, Value: []byte{0x03, 0x02, 0x05, 0xa0}}, // keyUsage
		},
	}
}

// sampleEncoding is sampleCert's encoding.
func sampleEncoding(tb testing.TB) []byte {
	tb.Helper()
	enc, err := sampleCert().Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCert()
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := sampleEncoding(t)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted truncation at %d", cut)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	enc := sampleEncoding(t)
	if _, err := Decode(append(enc, 0xff)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	enc := sampleEncoding(t)
	enc[0] = 99
	if _, err := Decode(enc); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestPoisonLifecycle(t *testing.T) {
	c := sampleCert()
	if c.IsPrecert() {
		t.Fatal("fresh cert must not be a precert")
	}
	c.AddPoison()
	if !c.IsPrecert() {
		t.Fatal("AddPoison did not take")
	}
	c.AddPoison() // idempotent
	count := 0
	for _, e := range c.Extensions {
		if e.OID == OIDPoison {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("poison extensions = %d, want 1", count)
	}
}

func TestSCTListLifecycle(t *testing.T) {
	c := sampleCert()
	if _, err := c.SCTs(); !errors.Is(err, ErrNoSCTList) {
		t.Fatalf("err = %v, want ErrNoSCTList", err)
	}
	in := []*sct.SignedCertificateTimestamp{
		{SCTVersion: sct.V1, LogID: sct.LogID{1}, Timestamp: 100},
		{SCTVersion: sct.V1, LogID: sct.LogID{2}, Timestamp: 200},
	}
	if err := c.SetSCTs(in); err != nil {
		t.Fatal(err)
	}
	got, err := c.SCTs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].LogID != in[0].LogID || got[1].Timestamp != 200 {
		t.Fatalf("SCTs = %+v", got)
	}
	// Replacing is in-place, not appending.
	if err := c.SetSCTs(in[:1]); err != nil {
		t.Fatal(err)
	}
	got, err = c.SCTs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("after replace: %d SCTs", len(got))
	}
}

// TBS invariants drive the Section 3.4 detector.
func TestTBSStripsOnlyCTExtensions(t *testing.T) {
	c := sampleCert()
	base, err := c.TBSForSCT()
	if err != nil {
		t.Fatal(err)
	}
	pre := c.Clone()
	pre.AddPoison()
	tbsPre, err := pre.TBSForSCT()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, tbsPre) {
		t.Fatal("poison must not affect TBS")
	}
	final := c.Clone()
	if err := final.SetSCTs([]*sct.SignedCertificateTimestamp{{SCTVersion: sct.V1, Timestamp: 1}}); err != nil {
		t.Fatal(err)
	}
	tbsFinal, err := final.TBSForSCT()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, tbsFinal) {
		t.Fatal("SCT list must not affect TBS")
	}
}

func TestTBSSensitiveToSANOrder(t *testing.T) {
	c := sampleCert()
	tbs1, _ := c.TBSForSCT()
	r := c.Clone()
	r.DNSNames[0], r.DNSNames[1] = r.DNSNames[1], r.DNSNames[0]
	tbs2, _ := r.TBSForSCT()
	if bytes.Equal(tbs1, tbs2) {
		t.Fatal("SAN reorder must change TBS (GlobalSign bug class)")
	}
}

func TestTBSSensitiveToExtensionOrder(t *testing.T) {
	c := sampleCert()
	c.Extensions = append(c.Extensions, Extension{OID: "2.5.29.37", Value: []byte{1}})
	tbs1, _ := c.TBSForSCT()
	r := c.Clone()
	r.Extensions[0], r.Extensions[1] = r.Extensions[1], r.Extensions[0]
	tbs2, _ := r.TBSForSCT()
	if bytes.Equal(tbs1, tbs2) {
		t.Fatal("extension reorder must change TBS (D-TRUST bug class)")
	}
}

func TestTBSSensitiveToSANContent(t *testing.T) {
	c := sampleCert()
	tbs1, _ := c.TBSForSCT()
	r := c.Clone()
	r.DNSNames[2] = "other.example.net"
	tbs2, _ := r.TBSForSCT()
	if bytes.Equal(tbs1, tbs2) {
		t.Fatal("SAN replacement must change TBS (NetLock bug class)")
	}
}

func TestNames(t *testing.T) {
	c := sampleCert()
	names := c.Names()
	want := []string{"www.example.org", "www.example.org", "example.org", "api.example.org"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names = %v", names)
	}
	c.Subject.CommonName = ""
	if got := c.Names(); len(got) != 3 {
		t.Fatalf("Names without CN = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := sampleCert()
	cl := c.Clone()
	cl.DNSNames[0] = "mutated.example"
	cl.Extensions[0].Value[0] = 0xff
	if c.DNSNames[0] == "mutated.example" {
		t.Fatal("Clone shares DNSNames")
	}
	if c.Extensions[0].Value[0] == 0xff {
		t.Fatal("Clone shares extension values")
	}
}

func TestStringRendering(t *testing.T) {
	c := sampleCert()
	if s := c.String(); s == "" || !bytes.Contains([]byte(s), []byte("www.example.org")) {
		t.Fatalf("String = %q", s)
	}
	c.AddPoison()
	if s := c.String(); !bytes.Contains([]byte(s), []byte("precert")) {
		t.Fatalf("String = %q", s)
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(serial uint64, cn, org string, sans []string, nExt uint8) bool {
		c := &Certificate{
			SerialNumber: serial,
			Issuer:       Name{CommonName: cn, Organization: org},
			Subject:      Name{CommonName: cn},
			NotBefore:    time.UnixMilli(rng.Int63n(1e13)).UTC(),
			NotAfter:     time.UnixMilli(rng.Int63n(1e13)).UTC(),
		}
		for _, s := range sans {
			if len(s) < 0xffff {
				c.DNSNames = append(c.DNSNames, s)
			}
		}
		for i := 0; i < int(nExt%5); i++ {
			c.Extensions = append(c.Extensions, Extension{OID: "1.2.3", Value: []byte{byte(i)}})
		}
		if len(cn) > 0xffff || len(org) > 0xffff {
			return true // out of codec scope
		}
		enc, err := c.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(c, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- x509 bridge ---

type fixedReader struct{ rng *rand.Rand }

func (f *fixedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f.rng.Intn(256))
	}
	return len(p), nil
}

func TestX509RoundTrip(t *testing.T) {
	key, err := GenerateKeyPair(&fixedReader{rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	c := sampleCert()
	c.IPAddresses = []string{"192.0.2.7"}
	if err := c.SetSCTs([]*sct.SignedCertificateTimestamp{{SCTVersion: sct.V1, LogID: sct.LogID{9}, Timestamp: 42,
		Signature: sct.DigitallySigned{HashAlgorithm: 4, SignatureAlgorithm: 3, Signature: []byte{1}}}}); err != nil {
		t.Fatal(err)
	}
	der, err := c.ToX509(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x509.ParseCertificate(der); err != nil {
		t.Fatalf("DER does not parse: %v", err)
	}
	back, err := FromX509(der)
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject.CommonName != c.Subject.CommonName {
		t.Errorf("CN = %q", back.Subject.CommonName)
	}
	if !reflect.DeepEqual(back.DNSNames, c.DNSNames) {
		t.Errorf("SANs = %v", back.DNSNames)
	}
	if len(back.IPAddresses) != 1 || back.IPAddresses[0] != "192.0.2.7" {
		t.Errorf("IPs = %v", back.IPAddresses)
	}
	scts, err := back.SCTs()
	if err != nil {
		t.Fatalf("SCTs after round trip: %v", err)
	}
	if len(scts) != 1 || scts[0].Timestamp != 42 {
		t.Fatalf("SCTs = %+v", scts)
	}
}

func TestX509PoisonSurvives(t *testing.T) {
	key, err := GenerateKeyPair(&fixedReader{rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	c := sampleCert()
	c.AddPoison()
	der, err := c.ToX509(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromX509(der)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsPrecert() {
		t.Fatal("poison lost in x509 round trip")
	}
}

func TestX509RejectsBadIP(t *testing.T) {
	key, err := GenerateKeyPair(&fixedReader{rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	c := sampleCert()
	c.IPAddresses = []string{"not-an-ip"}
	if _, err := c.ToX509(key, nil); err == nil {
		t.Fatal("expected error for invalid SAN IP")
	}
}

func TestIssuerKeyHashDeterministic(t *testing.T) {
	key, err := GenerateKeyPair(&fixedReader{rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	h1 := IssuerKeyHash(key.SPKI)
	h2 := IssuerKeyHash(key.SPKI)
	if h1 != h2 || h1 == [32]byte{} {
		t.Fatal("IssuerKeyHash not deterministic or zero")
	}
}

func BenchmarkSyntheticEncode(b *testing.B) {
	c := sampleCert()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyntheticDecode(b *testing.B) {
	enc := sampleEncoding(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
