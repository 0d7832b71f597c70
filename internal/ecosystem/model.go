package ecosystem

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// CA organization names, matching Figure 1's legend. The paper notes each
// organization subsumes several Issuer-CNs; we model one representative
// issuer per organization.
const (
	CALetsEncrypt = "Let's Encrypt"
	CADigiCert    = "DigiCert"
	CAComodo      = "Comodo"
	CAGlobalSign  = "GlobalSign"
	CAStartCom    = "StartCom"
	CAOther       = "Other CAs"
)

// RateModel gives a CA's precertificate-logging rate in certificates per
// day over the simulated timeline. The shapes are calibrated to
// Figures 1a/1b: DigiCert logging early and steadily, Comodo and
// GlobalSign joining with irregular additions, StartCom stopping after
// its distrust, Let's Encrypt switching on in March 2018 at >2M/day, and
// everyone ramping ahead of the April 2018 Chrome deadline.
type RateModel struct {
	// Start is when the CA begins logging precertificates.
	Start time.Time
	// End, if non-zero, is when the CA stops logging (StartCom).
	End time.Time
	// Base is the rate at Start, certificates/day.
	Base float64
	// GrowthPerYear multiplies the rate per simulated year (exponential
	// organic growth).
	GrowthPerYear float64
	// RampStart/RampRate: from RampStart the rate jumps to RampRate
	// (the "pronounced final jumps starting in March 2018").
	RampStart time.Time
	RampRate  float64
	// BurstProb/BurstFactor add day-level irregularity: with BurstProb a
	// day's rate is multiplied by BurstFactor (Comodo, GlobalSign).
	BurstProb   float64
	BurstFactor float64
}

// Rate returns the expected certificates/day on the given day. rng drives
// burst draws; pass a day-seeded rng for reproducibility.
func (m RateModel) Rate(day time.Time, rng *rand.Rand) float64 {
	if day.Before(m.Start) {
		return 0
	}
	if !m.End.IsZero() && day.After(m.End) {
		return 0
	}
	if !m.RampStart.IsZero() && !day.Before(m.RampStart) {
		return m.RampRate
	}
	years := day.Sub(m.Start).Hours() / (24 * 365)
	rate := m.Base
	if m.GrowthPerYear > 1 {
		rate *= math.Pow(m.GrowthPerYear, years)
	}
	if m.BurstProb > 0 && rng.Float64() < m.BurstProb {
		rate *= m.BurstFactor
	}
	return rate
}

// CASpec couples a CA organization with its rate model and log policy.
type CASpec struct {
	Org   string
	Model RateModel
	// Policy returns the set of log names one issuance is submitted to.
	// Sparse, CA-specific choices produce Figure 1c's concentration.
	Policy func(rng *rand.Rand) []string
}

// DefaultCASpecs returns the Figure 1 CA population. Rates are the
// paper-scale (unscaled) certificates/day; World applies Config.Scale.
func DefaultCASpecs() []CASpec {
	return []CASpec{
		{
			Org: CALetsEncrypt,
			Model: RateModel{
				// "In March 2018, Let's Encrypt started logging
				// precertificates with an update rate above 2M per day
				// into few logs."
				Start:     Date(2018, 3, 8),
				Base:      2.3e6,
				RampStart: Date(2018, 3, 8),
				RampRate:  2.3e6,
			},
			Policy: func(rng *rand.Rand) []string {
				// Nimbus2018 carries the main load besides Google logs
				// (Section 2); the set mix reproduces the Section 3.3
				// active-scan shares (Nimbus 74%, Icarus 71%,
				// Rocketeer 19%, Sabre 12.5%).
				switch p := rng.Float64(); {
				case p < 0.55:
					return []string{LogNimbus2018, LogGoogleIcarus}
				case p < 0.74:
					return []string{LogNimbus2018, LogGoogleIcarus, LogGoogleRocketeer}
				case p < 0.87:
					return []string{LogNimbus2018, LogComodoSabre}
				default:
					return []string{LogGoogleIcarus, LogGooglePilot}
				}
			},
		},
		{
			Org: CADigiCert,
			Model: RateModel{
				// "Over a long period, DigiCert dominated activities."
				Start:         Date(2015, 3, 1),
				Base:          8e3,
				GrowthPerYear: 2.2,
				RampStart:     Date(2018, 3, 1),
				RampRate:      3.5e5,
			},
			Policy: func(rng *rand.Rand) []string {
				if rng.Float64() < 0.7 {
					return []string{LogDigiCert, LogGoogleRocketeer}
				}
				return []string{LogDigiCert2, LogGoogleSkydiver}
			},
		},
		{
			Org: CAComodo,
			Model: RateModel{
				// "more irregular additions by Comodo"
				Start:         Date(2016, 7, 1),
				Base:          3e3,
				GrowthPerYear: 2.0,
				BurstProb:     0.08,
				BurstFactor:   25,
				RampStart:     Date(2018, 3, 10),
				RampRate:      4.5e5,
			},
			Policy: func(rng *rand.Rand) []string {
				if rng.Float64() < 0.5 {
					return []string{LogComodoMammoth, LogComodoSabre}
				}
				return []string{LogComodoMammoth, LogGooglePilot}
			},
		},
		{
			Org: CAGlobalSign,
			Model: RateModel{
				Start:         Date(2016, 1, 1),
				Base:          1.5e3,
				GrowthPerYear: 2.0,
				BurstProb:     0.05,
				BurstFactor:   15,
				RampStart:     Date(2018, 3, 15),
				RampRate:      1.2e5,
			},
			Policy: func(rng *rand.Rand) []string {
				if rng.Float64() < 0.6 {
					return []string{LogGooglePilot, LogGoogleRocketeer}
				}
				return []string{LogGoogleSkydiver, LogGooglePilot}
			},
		},
		{
			Org: CAStartCom,
			Model: RateModel{
				// StartCom logged early and stopped after its distrust.
				Start:         Date(2015, 9, 1),
				End:           Date(2017, 10, 1),
				Base:          1.2e3,
				GrowthPerYear: 1.5,
			},
			Policy: func(rng *rand.Rand) []string {
				if rng.Float64() < 0.5 {
					return []string{LogVenafi, LogGooglePilot}
				}
				return []string{LogCertlyIO, LogGooglePilot}
			},
		},
		{
			Org: CAOther,
			Model: RateModel{
				Start:         Date(2015, 6, 1),
				Base:          400,
				GrowthPerYear: 1.8,
				RampStart:     Date(2018, 3, 20),
				RampRate:      1.5e4,
			},
			Policy: func(rng *rand.Rand) []string {
				pool := []string{LogGooglePilot, LogGoogleRocketeer, LogGoogleAviator, LogSymantec, LogSymantecVega, LogVenafi, LogNimbus2020}
				i := rng.Intn(len(pool))
				j := (i + 1 + rng.Intn(len(pool)-1)) % len(pool)
				return []string{pool[i], pool[j]}
			},
		},
	}
}

// labelSpec models Table 2: per-label inclusion probabilities for the
// names a certificate covers, derived from the published counts
// (count/61.1M * 0.95, so www lands at its observed share).
type labelSpec struct {
	label string
	prob  float64
}

// cpanelProb is the fraction of domains on cPanel-style hosting, which
// auto-issues certificates covering the management-interface names the
// paper highlights (webdisk, cpanel, webmail; "could be interesting
// targets for password attacks").
const cpanelProb = 0.131

// cpanelAutodiscoverProb adds autodiscover to a cPanel set.
const cpanelAutodiscoverProb = 0.42

// independentLabels are drawn per-domain, independently, outside the
// cPanel cluster. Probabilities are calibrated to Table 2 counts.
var independentLabels = []labelSpec{
	{"mail", 0.090}, // remainder beyond the cPanel cluster's mail
	{"m", 0.0048},
	{"shop", 0.0047},
	{"whm", 0.0044},
	{"dev", 0.0040},
	{"remote", 0.0039},
	{"test", 0.0039},
	{"api", 0.0037},
	{"blog", 0.0037},
	{"secure", 0.0027},
	{"admin", 0.0025},
	{"mobile", 0.0024},
	{"server", 0.0023},
	{"cloud", 0.0022},
	{"smtp", 0.0022},
	{"vpn", 0.0012},
	{"staging", 0.0010},
	{"owncloud", 0.0008},
	{"citrix", 0.0006},
	{"autoconfig", 0.0006},
}

// suffixLabelAffinity boosts one label per public suffix, reproducing the
// Section 4.2 observation that the most common label differs by suffix
// (git for .tech, autoconfig for .email, api for .cloud, ftp for .design,
// sip for .gov, dialin for .gov.uk).
var suffixLabelAffinity = map[string]string{
	"tech":   "git",
	"email":  "autoconfig",
	"cloud":  "api",
	"design": "ftp",
	"gov":    "sip",
	"gov.uk": "dialin",
}

// suffixAffinityProb is the chance an affinity label is added for domains
// under its suffix. It exceeds affinityWWWProb so the affinity label is
// the suffix's most common one, as Section 4.2 observes.
const (
	suffixAffinityProb = 0.70
	affinityWWWProb    = 0.50
)

// wwwProb is the chance a certificate covers www.<domain>.
const wwwProb = 0.95

// rarePool supplies the long tail of uncommon labels real certificates
// carry (internal hostnames, product names). They diversify the census's
// distinct-label set, which drives the low corpus/Sonar label overlap of
// Section 4.1 (21%): public forward-DNS lists know the common labels but
// not this tail.
var rarePool = buildRarePool()

func buildRarePool() []string {
	pool := []string{
		"ns1", "ns2", "gw", "portal", "crm", "erp", "jira", "wiki",
		"intranet", "extranet", "git2", "ftp2", "mx1", "mx2", "db",
		"backup", "monitor", "grafana", "kibana", "proxy", "relay",
		"sso", "ldap", "radius", "voip", "pbx", "cam", "iot", "nas",
		"print", "wsus", "exchange", "lync", "sharepoint", "tfs",
	}
	for i := 0; i < 60; i++ {
		pool = append(pool, fmt.Sprintf("host-%02d", i))
	}
	return pool
}

// pRare is the chance a certificate carries one rare-tail label.
const pRare = 0.03

// NamesForDomain draws the DNS name set one certificate covers for a
// registrable domain, per the Table 2 label model. The bare domain is
// always included; suffix is the domain's public suffix. Callers that
// want a stable name set per domain (the timeline, which re-issues for
// the same domains repeatedly) must pass a domain-seeded rng.
func NamesForDomain(rng *rand.Rand, domain, suffix string) []string {
	names := []string{domain}
	affinity, hasAffinity := suffixLabelAffinity[suffix]
	wp := wwwProb
	if hasAffinity {
		// Affinity suffixes are developer/service TLDs where www is less
		// universal and the signature service name dominates.
		wp = affinityWWWProb
	}
	if rng.Float64() < wp {
		names = append(names, "www."+domain)
	}
	if rng.Float64() < cpanelProb {
		names = append(names, "mail."+domain, "webdisk."+domain, "webmail."+domain, "cpanel."+domain)
		if rng.Float64() < cpanelAutodiscoverProb {
			names = append(names, "autodiscover."+domain)
		}
	}
	for _, ls := range independentLabels {
		if rng.Float64() < ls.prob {
			names = append(names, ls.label+"."+domain)
		}
	}
	if hasAffinity && rng.Float64() < suffixAffinityProb {
		names = append(names, affinity+"."+domain)
	}
	if rng.Float64() < pRare {
		names = append(names, rarePool[rng.Intn(len(rarePool))]+"."+domain)
	}
	return names
}

// suffixShare is the registrable-domain suffix distribution of the
// synthetic population, loosely following zone-file sizes (.com dominant)
// while covering every suffix the analyses reference.
var suffixShare = []struct {
	suffix string
	weight float64
}{
	{"com", 0.46}, {"net", 0.07}, {"org", 0.06}, {"de", 0.06},
	{"co.uk", 0.04}, {"ru", 0.03}, {"nl", 0.025}, {"fr", 0.02},
	{"it", 0.02}, {"com.br", 0.02}, {"com.au", 0.015}, {"pl", 0.015},
	{"info", 0.015}, {"io", 0.012}, {"co", 0.01}, {"biz", 0.008},
	{"es", 0.008}, {"se", 0.008}, {"ch", 0.008}, {"at", 0.007},
	{"be", 0.007}, {"cz", 0.007}, {"jp", 0.007}, {"cn", 0.007},
	{"in", 0.006}, {"me", 0.005}, {"tv", 0.004}, {"xyz", 0.004},
	{"tech", 0.004}, {"email", 0.003}, {"cloud", 0.003}, {"design", 0.002},
	{"gov", 0.002}, {"gov.uk", 0.002}, {"gov.au", 0.002},
	{"ga", 0.003}, {"tk", 0.004}, {"ml", 0.003}, {"cf", 0.002}, {"gq", 0.002},
	{"bid", 0.002}, {"review", 0.002}, {"live", 0.002}, {"money", 0.001},
	{"site", 0.003}, {"online", 0.003}, {"top", 0.003}, {"club", 0.002},
	{"shop", 0.002}, {"app", 0.002},
}

// SuffixFor deterministically assigns a public suffix to domain index i.
func SuffixFor(rng *rand.Rand) string {
	p := rng.Float64()
	var cum float64
	for _, s := range suffixShare {
		cum += s.weight
		if p < cum {
			return s.suffix
		}
	}
	return "com"
}

// DomainName generates the registrable-domain label for index i:
// pronounceable, deterministic, unique per index.
func DomainName(i int) string {
	consonants := "bcdfghklmnprstvz"
	vowels := "aeiou"
	var b []byte
	n := i
	for len(b) < 8 {
		b = append(b, consonants[n%len(consonants)])
		n /= len(consonants)
		b = append(b, vowels[n%len(vowels)])
		n /= len(vowels)
	}
	return string(b)
}
