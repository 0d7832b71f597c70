package psl

import (
	"errors"
	"reflect"
	"testing"
)

func TestPublicSuffixBasics(t *testing.T) {
	l := Default()
	cases := map[string]string{
		"example.com":           "com",
		"www.example.com":       "com",
		"example.co.uk":         "co.uk",
		"www.example.co.uk":     "co.uk",
		"example.gov.au":        "gov.au",
		"foo.bar.example.de":    "de",
		"example.github.io":     "github.io",
		"a.blogspot.com":        "blogspot.com",
		"example.tk":            "tk",
		"accounts.google.co.am": "co.am",
	}
	for name, want := range cases {
		if got := l.PublicSuffix(name); got != want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestPublicSuffixImplicitRule(t *testing.T) {
	l := Default()
	// "zz" is not in the list: the implicit * rule makes the last label
	// the suffix.
	if got := l.PublicSuffix("example.zz"); got != "zz" {
		t.Fatalf("implicit rule: %q", got)
	}
}

func TestWildcardRules(t *testing.T) {
	l := Default()
	// *.ck: any z.ck is a public suffix.
	if got := l.PublicSuffix("example.foo.ck"); got != "foo.ck" {
		t.Fatalf("wildcard: %q", got)
	}
	// !www.ck exception: www.ck is NOT a public suffix; suffix is ck.
	if got := l.PublicSuffix("www.ck"); got != "ck" {
		t.Fatalf("exception: %q", got)
	}
	if got := l.PublicSuffix("foo.www.ck"); got != "ck" {
		t.Fatalf("exception subdomain: %q", got)
	}
}

func TestKobeJPSemantics(t *testing.T) {
	l := Default()
	// kobe.jp itself is a rule, *.kobe.jp makes sub-suffixes, and
	// !city.kobe.jp is carved back out.
	if got := l.PublicSuffix("x.foo.kobe.jp"); got != "foo.kobe.jp" {
		t.Fatalf("*.kobe.jp: %q", got)
	}
	if got := l.PublicSuffix("x.city.kobe.jp"); got != "kobe.jp" {
		t.Fatalf("!city.kobe.jp: %q", got)
	}
}

func TestRegistrableDomain(t *testing.T) {
	l := Default()
	cases := map[string]string{
		"www.example.com":         "example.com",
		"example.com":             "example.com",
		"a.b.c.example.co.uk":     "example.co.uk",
		"mail.example.de":         "example.de",
		"appleid.apple.com":       "apple.com",
		"deep.sub.example.gov.au": "example.gov.au",
	}
	for name, want := range cases {
		got, err := l.RegistrableDomain(name)
		if err != nil {
			t.Errorf("RegistrableDomain(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestRegistrableDomainOfSuffixFails(t *testing.T) {
	l := Default()
	for _, name := range []string{"com", "co.uk", "gov.au", ""} {
		if _, err := l.RegistrableDomain(name); !errors.Is(err, ErrNoSuffix) {
			t.Errorf("RegistrableDomain(%q) err = %v, want ErrNoSuffix", name, err)
		}
	}
}

func TestSplit(t *testing.T) {
	l := Default()
	sub, reg, suffix, err := l.Split("dev.api.example.co.uk")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub, []string{"dev", "api"}) {
		t.Errorf("sub = %v", sub)
	}
	if reg != "example.co.uk" || suffix != "co.uk" {
		t.Errorf("reg=%q suffix=%q", reg, suffix)
	}

	sub, reg, _, err = l.Split("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 0 || reg != "example.com" {
		t.Errorf("bare domain: sub=%v reg=%q", sub, reg)
	}
}

func TestSplitCaseAndDot(t *testing.T) {
	l := Default()
	sub, reg, _, err := l.Split("WWW.Example.COM.")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0] != "www" || reg != "example.com" {
		t.Fatalf("normalized split: %v %q", sub, reg)
	}
}

func TestParseIgnoresCommentsAndBlank(t *testing.T) {
	l, err := Parse("// a comment\n\ncom\n  \n// more\nco.uk trailing-junk\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(l.rules))
	}
	if got := l.PublicSuffix("x.co.uk"); got != "co.uk" {
		t.Fatalf("suffix = %q", got)
	}
}

func TestLongestMatchWins(t *testing.T) {
	l := MustParse("com\nexample.com\n")
	if got := l.PublicSuffix("www.example.com"); got != "example.com" {
		t.Fatalf("longest match: %q", got)
	}
}

func TestDefaultListCoversTable3Suffixes(t *testing.T) {
	// Table 3 phishing domains use these suffixes; the analyses depend on
	// them being known to the PSL.
	l := Default()
	for _, s := range []string{"com", "ga", "info", "tk", "ml", "gq", "money", "live", "bid", "review", "co.am", "cf"} {
		if got := l.PublicSuffix("victim-domain." + s); got != s {
			t.Errorf("suffix %q not recognized (got %q)", s, got)
		}
	}
}

func BenchmarkRegistrableDomain(b *testing.B) {
	l := Default()
	names := []string{
		"www.example.com", "a.b.c.example.co.uk", "mail.example.de",
		"x.foo.kobe.jp", "deep.sub.example.gov.au",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.RegistrableDomain(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}
