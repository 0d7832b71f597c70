// Package psl implements Public Suffix List parsing and matching with the
// full publicsuffix.org semantics: plain rules, wildcard rules (*.kobe.jp)
// and exception rules (!city.kobe.jp). The paper uses the PSL to define
// "base domains" (registrable domains): the domain directly under a
// public suffix. All subdomain-label statistics in Sections 4 and 5 are
// computed relative to this split.
package psl

import (
	"bufio"
	"errors"
	"strings"

	"ctrise/internal/dnsname"
)

// ErrNoSuffix is returned when a name has no registrable domain (it is
// itself a public suffix, or empty).
var ErrNoSuffix = errors.New("psl: name has no registrable domain")

// List is a parsed Public Suffix List.
type List struct {
	// rules maps the rule name (without "*." or "!") to its kind.
	rules map[string]ruleKind
}

type ruleKind uint8

const (
	ruleNormal ruleKind = 1 << iota
	ruleWildcard
	ruleException
)

// Parse reads PSL rules from text: one rule per line, comments starting
// with "//", blank lines ignored.
func Parse(text string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// The PSL format terminates rules at the first whitespace.
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		switch {
		case strings.HasPrefix(line, "!"):
			l.rules[dnsname.Normalize(line[1:])] |= ruleException
		case strings.HasPrefix(line, "*."):
			l.rules[dnsname.Normalize(line[2:])] |= ruleWildcard
		default:
			l.rules[dnsname.Normalize(line)] |= ruleNormal
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// MustParse parses or panics; for embedded lists.
func MustParse(text string) *List {
	l, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return l
}

// Default returns the embedded snapshot list.
func Default() *List { return defaultList }

var defaultList = MustParse(embeddedList)

// PublicSuffix returns the public suffix of a normalized name following
// the publicsuffix.org algorithm:
//
//  1. An exception rule !x.y matches x.y and yields suffix y.
//  2. A wildcard rule *.y matches any z.y and yields suffix z.y.
//  3. A normal rule y yields suffix y.
//  4. If no rule matches, the suffix is the last label (the implicit "*"
//     rule).
//
// Among matching rules the longest match wins (exceptions beat all).
func (l *List) PublicSuffix(name string) string {
	name = dnsname.Normalize(name)
	if name == "" {
		return ""
	}
	labels := strings.Split(name, ".")
	// Walk suffixes from longest to shortest; the first hit is the longest
	// match.
	for i := 0; i < len(labels); i++ {
		candidate := strings.Join(labels[i:], ".")
		kind, ok := l.rules[candidate]
		if !ok {
			continue
		}
		if kind&ruleException != 0 {
			// Exception: public suffix is the candidate minus its first label.
			return strings.Join(labels[i+1:], ".")
		}
		if kind&ruleWildcard != 0 && i > 0 {
			// Wildcard *.candidate: the label before candidate joins the suffix.
			return strings.Join(labels[i-1:], ".")
		}
		if kind&ruleNormal != 0 {
			return candidate
		}
	}
	// Implicit "*" rule.
	return labels[len(labels)-1]
}

// RegistrableDomain returns the "base domain": public suffix plus one
// label. It fails if the name equals (or is shorter than) its suffix.
func (l *List) RegistrableDomain(name string) (string, error) {
	name = dnsname.Normalize(name)
	suffix := l.PublicSuffix(name)
	if name == suffix || suffix == "" {
		return "", ErrNoSuffix
	}
	rest := strings.TrimSuffix(name, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix, nil
}

// Split decomposes a name into (subdomainLabels, registrableDomain,
// publicSuffix). subdomainLabels are the labels in front of the
// registrable domain, leftmost first; empty for bare registrable domains.
func (l *List) Split(name string) (sub []string, regDomain, suffix string, err error) {
	name = dnsname.Normalize(name)
	regDomain, err = l.RegistrableDomain(name)
	if err != nil {
		return nil, "", "", err
	}
	suffix = l.PublicSuffix(name)
	if name != regDomain {
		subPart := strings.TrimSuffix(name, "."+regDomain)
		sub = strings.Split(subPart, ".")
	}
	return sub, regDomain, suffix, nil
}
