package dnsname

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"WWW.Example.COM": "www.example.com",
		"example.org.":    "example.org",
		"  foo.bar \t":    "foo.bar",
		"MiXeD.CaSe.Net.": "mixed.case.net",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsValidFQDN(t *testing.T) {
	valid := []string{
		"example.com",
		"www.example.com",
		"a.b",
		"xn--nxasmq6b.example",
		"my-site.example.co.uk",
		"_dmarc.example.com",
		"a1.b2.c3.example",
		"m.de",
		strings.Repeat("a", 63) + ".example.com",
	}
	for _, n := range valid {
		if !IsValidFQDN(n) {
			t.Errorf("IsValidFQDN(%q) = false, want true", n)
		}
	}
	invalid := []string{
		"",
		"example",                                // single label
		".example.com",                           // empty label
		"example..com",                           // empty label
		"-bad.example.com",                       // leading hyphen
		"bad-.example.com",                       // trailing hyphen
		"exa_mple.example.com",                   // interior underscore
		"spaces here.example.com",                // space
		"example.123",                            // numeric TLD (an IP fragment)
		"1.2.3.4",                                // IP address
		strings.Repeat("a", 64) + ".example.com", // label too long
		strings.Repeat("a.", 127) + "toolongtotal" + strings.Repeat("x", 130), // > 253
		"UPPER.example.com",  // not normalized
		"emoji🦊.example.com", // non-ASCII
	}
	for _, n := range invalid {
		if IsValidFQDN(n) {
			t.Errorf("IsValidFQDN(%q) = true, want false", n)
		}
	}
}

func TestWildcardHandling(t *testing.T) {
	if got := TrimWildcard("*.example.com"); got != "example.com" {
		t.Errorf("TrimWildcard = %q", got)
	}
	if got := TrimWildcard("plain.example.com"); got != "plain.example.com" {
		t.Errorf("TrimWildcard(plain) = %q", got)
	}
}

func TestLabelsJoinPrepend(t *testing.T) {
	if got := Prepend("mail", "example.de"); got != "mail.example.de" {
		t.Errorf("Prepend = %q", got)
	}
}

func TestRandomLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		l := RandomLabel(rng, 12)
		if len(l) != 12 {
			t.Fatalf("label length = %d", len(l))
		}
		if !isValidLabel(l) {
			t.Fatalf("invalid random label %q", l)
		}
		if l[0] >= '0' && l[0] <= '9' {
			t.Fatalf("label starts with digit: %q", l)
		}
		seen[l] = true
	}
	if len(seen) < 99 {
		t.Fatalf("only %d distinct labels in 100 draws", len(seen))
	}
	if RandomLabel(rng, 0) != "" {
		t.Fatal("zero-length label should be empty")
	}
}

func TestRandomLabelDeterministic(t *testing.T) {
	a := RandomLabel(rand.New(rand.NewSource(7)), 12)
	b := RandomLabel(rand.New(rand.NewSource(7)), 12)
	if a != b {
		t.Fatalf("same seed, different labels: %q vs %q", a, b)
	}
}

// Property: every name joined from random labels is a valid FQDN that
// survives Normalize unchanged.
func TestQuickLabelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 2 + rng.Intn(4)
		labels := make([]string, n)
		for i := range labels {
			labels[i] = RandomLabel(rng, 1+rng.Intn(10))
		}
		name := strings.Join(labels, ".")
		if !IsValidFQDN(name) {
			return false
		}
		return Normalize(name) == name
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(struct{}) bool { return f() }, cfg); err != nil {
		t.Fatal(err)
	}
}
