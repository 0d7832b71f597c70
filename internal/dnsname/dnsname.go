// Package dnsname provides DNS name handling: RFC 1035-style FQDN
// validation (as the paper applies to names extracted from certificate CN
// and SAN fields), normalization, label manipulation, and deterministic
// random-name generation for the CT honeypot.
package dnsname

import (
	"math/rand"
	"strings"
)

// Limits from RFC 1035 (as updated).
const (
	// MaxNameLength is the maximum presentation-format name length.
	MaxNameLength = 253
	// MaxLabelLength is the maximum length of one label.
	MaxLabelLength = 63
)

// Normalize lowercases a name and strips a single trailing dot. It does
// not validate.
func Normalize(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	name = strings.TrimSuffix(name, ".")
	return name
}

// TrimWildcard removes one leading "*." label if present.
func TrimWildcard(name string) string { return strings.TrimPrefix(name, "*.") }

// IsValidFQDN reports whether name is a well-formed fully qualified domain
// name under the rules the paper uses to filter CT names: at least two
// labels, every label 1–63 LDH (letter/digit/hyphen) characters not
// starting or ending with a hyphen, a non-numeric TLD, and a total length
// of at most 253 bytes. Underscore is accepted as a leading character of
// a label (e.g. _dmarc) because such names occur in real certificates and
// zones. The name must already be normalized (no trailing dot, lowercase).
func IsValidFQDN(name string) bool {
	if len(name) == 0 || len(name) > MaxNameLength {
		return false
	}
	labels := strings.Split(name, ".")
	if len(labels) < 2 {
		return false
	}
	for _, l := range labels {
		if !isValidLabel(l) {
			return false
		}
	}
	return !isAllDigits(labels[len(labels)-1])
}

func isValidLabel(l string) bool {
	if len(l) == 0 || len(l) > MaxLabelLength {
		return false
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-':
			if i == 0 || i == len(l)-1 {
				return false
			}
		case c == '_':
			// Accept only in leading position, per common practice.
			if i != 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func isAllDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// Prepend adds a label in front of a name, as subdomain construction does
// in the paper's Section 4.3 (e.g. "mail" + "example.de" = "mail.example.de").
func Prepend(label, name string) string { return label + "." + name }

// randAlphabet is the character set for random honeypot labels: LDH
// letters and digits, starting alphabetic.
const (
	randFirst = "abcdefghijklmnopqrstuvwxyz"
	randRest  = "abcdefghijklmnopqrstuvwxyz0123456789"
)

// RandomLabel generates a random n-character label from rng. The paper's
// honeypot uses hard-to-guess 12-character labels, so that any DNS query
// for them proves the name leaked via CT.
func RandomLabel(rng *rand.Rand, n int) string {
	if n <= 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte(randFirst[rng.Intn(len(randFirst))])
	for i := 1; i < n; i++ {
		b.WriteByte(randRest[rng.Intn(len(randRest))])
	}
	return b.String()
}
