package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/base64"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrise/internal/sct"
)

// TestParseLogSpec pins the -log syntax: "name,url,KEYSPEC" with no
// opt-out from verification. An accepted spec must yield a client that
// verifies heads signed by the named key and rejects heads signed by any
// other.
func TestParseLogSpec(t *testing.T) {
	newKey := func() *ecdsa.PrivateKey {
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return priv
	}
	priv := newKey()
	// ctlogd's key.der is the SEC1 private key.
	sec1, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	pkix, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	keyFile := filepath.Join(t.TempDir(), "key.der")
	if err := os.WriteFile(keyFile, sec1, 0o600); err != nil {
		t.Fatal(err)
	}
	ecdsaSigner := sct.NewSignerFromKey(priv)
	otherECDSA := sct.NewSignerFromKey(newKey())

	const mmd = 90 * time.Minute
	for _, row := range []struct {
		v             string
		name          string        // subtest name when v holds a generated key or path; "" = v
		signer, other sct.LogSigner // accepted rows: the matching key and a stranger's
		want          string        // "" = accepted; otherwise a substring of the error
	}{
		{v: "log-a,http://a,fast", signer: sct.NewFastSigner("log-a"), other: sct.NewFastSigner("log-b")},
		{v: "log-a,http://a,pubkey:" + base64.StdEncoding.EncodeToString(pkix), name: "log-a,http://a,pubkey:SPKI", signer: ecdsaSigner, other: otherECDSA},
		{v: "log-a,http://a,keyfile:" + keyFile, name: "log-a,http://a,keyfile:KEYFILE", signer: ecdsaSigner, other: otherECDSA},
		{v: "log-a,http://a,fastest", want: `unknown KEYSPEC "fastest"`},
		{v: "log-a,http://a,none", want: `unknown KEYSPEC "none"`},
		{v: "log-a,http://a", want: `want "name,url,KEYSPEC"`},
		{v: ",http://a,fast", want: `want "name,url,KEYSPEC"`},
		{v: "log-a,,fast", want: `want "name,url,KEYSPEC"`},
		{v: "log-a,http://a,", want: `want "name,url,KEYSPEC"`},
		{v: "log-a,http://a,fast,extra", want: `unknown KEYSPEC "fast,extra"`},
	} {
		name := row.name
		if name == "" {
			name = row.v
		}
		t.Run(name, func(t *testing.T) {
			lc, err := parseLogSpec(row.v, mmd)
			if row.want != "" {
				if err == nil || !strings.Contains(err.Error(), row.want) {
					t.Fatalf("err=%v, want one containing %q", err, row.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if lc.Name != "log-a" || lc.MMD != mmd || lc.Client.BaseURL != "http://a" {
				t.Fatalf("got name %q MMD %v url %q", lc.Name, lc.MMD, lc.Client.BaseURL)
			}
			th := sct.TreeHead{Timestamp: 1, TreeSize: 2, RootHash: [32]byte{3}}
			sig, err := row.signer.SignTreeHead(th)
			if err != nil {
				t.Fatal(err)
			}
			if err := lc.Client.Verifier.VerifyTreeHead(th, sig); err != nil {
				t.Fatalf("head signed by the named key rejected: %v", err)
			}
			if sig, err = row.other.SignTreeHead(th); err != nil {
				t.Fatal(err)
			}
			if err := lc.Client.Verifier.VerifyTreeHead(th, sig); err == nil {
				t.Fatal("head signed by another key verified")
			}
		})
	}
}
