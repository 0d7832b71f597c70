// Package phish implements Section 5: detecting potential phishing
// domains in CT-logged names. The detector matches names containing a
// target service's brand string or characteristic FQDN label sequences
// (e.g. "login.live" for Microsoft) and excludes the service's legitimate
// domains; the companion generator synthesizes phishing-style domains in
// the shapes Table 3 reports (brand-prefixed free-TLD domains, combosquats
// like "paypal.com-account-security.money", and government-taxation
// imitations).
package phish

import (
	"regexp"

	"ctrise/internal/dnsname"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
)

// Target describes one monitored service.
type Target struct {
	// Service is the display name used in Table 3.
	Service string
	// Patterns are regular expressions over the full (normalized) FQDN;
	// any match flags the name.
	Patterns []*regexp.Regexp
	// LegitDomains are registrable domains owned by the service; names
	// under them are never flagged ("subdomains of apple.com are
	// considered legitimate Apple domains").
	LegitDomains map[string]bool
}

// NewTarget compiles a target from pattern strings.
func NewTarget(service string, patterns []string, legit []string) (*Target, error) {
	t := &Target{Service: service, LegitDomains: make(map[string]bool, len(legit))}
	for _, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, err
		}
		t.Patterns = append(t.Patterns, re)
	}
	for _, d := range legit {
		t.LegitDomains[dnsname.Normalize(d)] = true
	}
	return t, nil
}

// DefaultTargets returns the five Table 3 services with the paper's
// matching approach: service-name substrings and label subsets of the
// services' login FQDNs.
func DefaultTargets() []*Target {
	mk := func(service string, patterns, legit []string) *Target {
		t, err := NewTarget(service, patterns, legit)
		if err != nil {
			panic(err)
		}
		return t
	}
	return []*Target{
		mk("Apple",
			[]string{`appleid`, `apple\.com`, `icloud[-.]`},
			[]string{"apple.com", "icloud.com"}),
		mk("PayPal",
			[]string{`paypal`},
			[]string{"paypal.com", "paypal.me"}),
		mk("Microsoft",
			[]string{`hotmail`, `login\.live`, `login[-.]microsoft`, `outlook[-.]login`, `www[-.]hotmail`},
			[]string{"microsoft.com", "live.com", "outlook.com", "hotmail.com"}),
		mk("Google",
			[]string{`accounts\.google\.`, `google\.com[-.]`, `gmail[-.]login`},
			[]string{"google.com", "gmail.com", "youtube.com"}),
		mk("eBay",
			[]string{`ebay\.`, `[-.]ebay[-.]`, `^ebay[-.]`},
			[]string{"ebay.com", "ebay.co.uk", "ebay.de"}),
	}
}

// GovTarget matches government-taxation imitations (the ATO / HMRC / IRS
// examples of Section 5).
func GovTarget() *Target {
	t, err := NewTarget("Tax agencies",
		[]string{`ato\.gov\.au`, `hmrc\.gov\.uk`, `irs\.gov`},
		[]string{"gov.au", "gov.uk", "irs.gov"})
	if err != nil {
		panic(err)
	}
	return t
}

// Finding is one flagged domain.
type Finding struct {
	Service string
	FQDN    string
	// Suffix is the name's public suffix, for the Table 3 suffix-linkage
	// analysis.
	Suffix string
}

// Detector scans names against a set of targets.
type Detector struct {
	Targets []*Target
	PSL     *psl.List
}

// NewDetector builds a detector over the default targets.
func NewDetector() *Detector {
	return &Detector{Targets: DefaultTargets(), PSL: psl.Default()}
}

// Check tests one name against all targets, returning at most one finding
// per service.
func (d *Detector) Check(name string) []Finding {
	name = dnsname.Normalize(dnsname.TrimWildcard(name))
	if name == "" {
		return nil
	}
	regDomain, err := d.PSL.RegistrableDomain(name)
	if err != nil {
		return nil
	}
	suffix := d.PSL.PublicSuffix(name)
	var out []Finding
	for _, t := range d.Targets {
		if t.LegitDomains[regDomain] {
			continue
		}
		for _, re := range t.Patterns {
			if re.MatchString(name) {
				out = append(out, Finding{Service: t.Service, FQDN: name, Suffix: suffix})
				break
			}
		}
	}
	return out
}

// Report aggregates findings per service (Table 3) and per (service,
// suffix) for the suffix-linkage observations.
type Report struct {
	// Unique potential phishing domains per service, deduplicated by
	// registrable domain+name.
	PerService *stats.Counter
	// SuffixPerService counts suffixes within each service's findings.
	SuffixPerService map[string]*stats.Counter
	// Examples holds one sample finding per service.
	Examples map[string]string
	// Total is the number of unique flagged names across services.
	Total uint64
}

// Scan runs the detector over a name corpus and aggregates the report.
func (d *Detector) Scan(names map[string]struct{}) *Report {
	r := &Report{
		PerService:       stats.NewCounter(),
		SuffixPerService: make(map[string]*stats.Counter),
		Examples:         make(map[string]string),
	}
	seen := make(map[string]bool)
	for name := range names {
		for _, f := range d.Check(name) {
			key := f.Service + "|" + f.FQDN
			if seen[key] {
				continue
			}
			seen[key] = true
			r.PerService.Inc(f.Service)
			sc := r.SuffixPerService[f.Service]
			if sc == nil {
				sc = stats.NewCounter()
				r.SuffixPerService[f.Service] = sc
			}
			sc.Inc(f.Suffix)
			// Keep the lexicographically smallest finding as the example:
			// "first seen" would follow Go's randomized map iteration
			// order and change from run to run.
			if cur, ok := r.Examples[f.Service]; !ok || f.FQDN < cur {
				r.Examples[f.Service] = f.FQDN
			}
			r.Total++
		}
	}
	return r
}

// SuffixShare returns the fraction of a service's findings under any of
// the given suffixes (e.g. eBay's 28% on bid+review).
func (r *Report) SuffixShare(service string, suffixes ...string) float64 {
	sc := r.SuffixPerService[service]
	if sc == nil {
		return 0
	}
	var hit uint64
	for _, s := range suffixes {
		hit += sc.Get(s)
	}
	return stats.Percent(hit, r.PerService.Get(service))
}
