package subenum

import (
	"math/rand"
	"net"
	"sort"

	"ctrise/internal/dnsmsg"
	"ctrise/internal/dnsname"
	"ctrise/internal/dnssim"
	"ctrise/internal/ecosystem"
	"ctrise/internal/stats"
)

// ConstructConfig parameterizes the Section 4.3 construction strategy.
type ConstructConfig struct {
	// MinLabelCount filters out labels occurring fewer times in the whole
	// corpus (the paper uses 100k at full scale).
	MinLabelCount uint64
	// TopSuffixes bounds, per label, the number of public suffixes
	// considered (the paper uses the top 10).
	TopSuffixes int
	// SkipSuffixes are excluded as "too generic" (the paper skips .com,
	// .net, .org).
	SkipSuffixes map[string]bool
	// Parallelism bounds the label-level fan-out (0 means GOMAXPROCS,
	// 1 runs inline). The candidate list is identical at any setting.
	Parallelism int
}

func (c *ConstructConfig) setDefaults() {
	if c.TopSuffixes <= 0 {
		c.TopSuffixes = 10
	}
	if c.SkipSuffixes == nil {
		c.SkipSuffixes = map[string]bool{"com": true, "net": true, "org": true}
	}
}

// Candidate is one constructed FQDN to verify.
type Candidate struct {
	FQDN   string
	Label  string
	Domain string
}

// Construct builds the candidate FQDN list: for each frequent label, take
// the top suffixes it occurs in, and prepend the label to every known
// registrable domain under those suffixes. domainsBySuffix is the
// domain list (Section 4.1's 206M-entry list, scaled), keyed by suffix.
func Construct(census *Census, domainsBySuffix map[string][]string, cfg ConstructConfig) []Candidate {
	cfg.setDefaults()
	// Deterministic label order: by count descending.
	var labels []string
	for _, kv := range census.Labels.TopK(census.Labels.Len()) {
		if kv.Count < cfg.MinLabelCount {
			break // TopK is sorted; everything after is smaller
		}
		labels = append(labels, kv.Key)
	}
	// Each label's candidate block is independent, so the blocks are
	// built in parallel and concatenated in label order — the same list
	// a sequential loop produces.
	perLabel := make([][]Candidate, len(labels))
	ecosystem.ForEach(len(labels), cfg.Parallelism, func(i int) {
		perLabel[i] = constructLabel(census, domainsBySuffix, cfg, labels[i])
	})
	var total int
	for _, block := range perLabel {
		total += len(block)
	}
	out := make([]Candidate, 0, total)
	for _, block := range perLabel {
		out = append(out, block...)
	}
	return out
}

// constructLabel builds one label's candidate block: rank the suffixes
// the label occurs under, take the top ones, and prepend the label to
// every known registrable domain there.
func constructLabel(census *Census, domainsBySuffix map[string][]string, cfg ConstructConfig, label string) []Candidate {
	type sc struct {
		suffix string
		count  uint64
	}
	var ranked []sc
	for suffix, counter := range census.LabelsBySuffix {
		if cfg.SkipSuffixes[suffix] {
			continue
		}
		if n := counter.Get(label); n > 0 {
			ranked = append(ranked, sc{suffix, n})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].suffix < ranked[j].suffix
	})
	if len(ranked) > cfg.TopSuffixes {
		ranked = ranked[:cfg.TopSuffixes]
	}
	var out []Candidate
	for _, r := range ranked {
		for _, domain := range domainsBySuffix[r.suffix] {
			out = append(out, Candidate{
				FQDN:   dnsname.Prepend(label, domain),
				Label:  label,
				Domain: domain,
			})
		}
	}
	return out
}

// RouteChecker filters out answers pointing at unrouted space (the
// paper's border-router routing-table check). *asn.Registry satisfies it.
type RouteChecker interface {
	InRoutingTable(ip net.IP) bool
}

// concurrency is the default massdns-style resolver fan-out used by
// Verify (VerifyConfig.Parallelism overrides it).
const concurrency = 16

// verifyChunk is the number of candidates one verification task
// resolves.
const verifyChunk = 512

// VerifyConfig parameterizes verification.
type VerifyConfig struct {
	// Seed drives control-name generation.
	Seed int64
	// MaxCNAME bounds CNAME chasing (the paper follows up to 10).
	MaxCNAME int
	// ControlLabelLen is the pseudorandom control label length (16 in the
	// paper).
	ControlLabelLen int
	// Parallelism is the resolver fan-out (the massdns-style concurrency,
	// 16 by default; 1 runs inline). The funnel is identical at any
	// setting.
	Parallelism int
}

func (c *VerifyConfig) setDefaults() {
	if c.MaxCNAME <= 0 {
		c.MaxCNAME = 10
	}
	if c.ControlLabelLen <= 0 {
		c.ControlLabelLen = 16
	}
	if c.Parallelism <= 0 {
		c.Parallelism = concurrency
	}
}

// VerifyResult is the Section 4.3 funnel.
type VerifyResult struct {
	// Constructed is the number of candidate FQDNs tested (210.7M in the
	// paper).
	Constructed uint64
	// TestAnswers counts candidates whose A lookup succeeded (80.3M).
	TestAnswers uint64
	// ControlAnswers counts pseudorandom controls that succeeded (61.5M),
	// identifying default-answer zones.
	ControlAnswers uint64
	// UnroutedDiscarded counts answers dropped by the routing-table check.
	UnroutedDiscarded uint64
	// NewFQDNs are candidates that resolved while their control did not
	// (18.8M): genuinely existing, previously unknown names.
	NewFQDNs []string
}

// Verify resolves every candidate and its pseudorandom control through
// the resolver, massdns-style (concurrent), following CNAME chains and
// discarding unrouted answers. universe must support chain resolution.
func Verify(candidates []Candidate, universe *dnssim.Universe, routes RouteChecker, cfg VerifyConfig) *VerifyResult {
	cfg.setDefaults()
	res := &VerifyResult{Constructed: uint64(len(candidates))}

	// Control names are per (domain) — one pseudorandom label per domain
	// suffices to detect default-answer zones; compute them first.
	controlFor := make(map[string]string)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, c := range candidates {
		if _, ok := controlFor[c.Domain]; !ok {
			controlFor[c.Domain] = dnsname.RandomLabel(rng, cfg.ControlLabelLen)
		}
	}
	type domCtl struct{ domain, label string }
	ctls := make([]domCtl, 0, len(controlFor))
	for d, l := range controlFor {
		ctls = append(ctls, domCtl{d, l})
	}
	sort.Slice(ctls, func(i, j int) bool { return ctls[i].domain < ctls[j].domain })
	// Index-aligned results: each worker writes its own slots, no lock.
	ctlOK := make([]bool, len(ctls))
	ecosystem.ForEach(len(ctls), cfg.Parallelism, func(i int) {
		ctlOK[i], _ = resolves(universe, dnsname.Prepend(ctls[i].label, ctls[i].domain), routes, cfg.MaxCNAME)
	})
	controlResolves := make(map[string]bool, len(ctls))
	for i, dc := range ctls {
		controlResolves[dc.domain] = ctlOK[i]
	}

	// Candidate phase: contiguous verifyChunk-candidate chunks, one
	// private partial per chunk, merged after the barrier — no shared
	// lock on the resolution path.
	type verifyPartial struct {
		testAnswers, controlAnswers, unrouted uint64
		newNames                              []string
	}
	chunks := ecosystem.Ranges(len(candidates), verifyChunk)
	parts := make([]verifyPartial, len(chunks))
	ecosystem.ForEach(len(chunks), cfg.Parallelism, func(ci int) {
		p := &parts[ci]
		for _, c := range candidates[chunks[ci].Lo:chunks[ci].Hi] {
			ok, dropped := resolves(universe, c.FQDN, routes, cfg.MaxCNAME)
			if dropped {
				p.unrouted++
			}
			ctl := controlResolves[c.Domain]
			if ctl {
				p.controlAnswers++
			}
			if !ok {
				continue
			}
			p.testAnswers++
			if !ctl {
				p.newNames = append(p.newNames, c.FQDN)
			}
		}
	})
	var newNames []string
	for i := range parts {
		res.TestAnswers += parts[i].testAnswers
		res.ControlAnswers += parts[i].controlAnswers
		res.UnroutedDiscarded += parts[i].unrouted
		newNames = append(newNames, parts[i].newNames...)
	}
	sort.Strings(newNames)
	res.NewFQDNs = newNames
	return res
}

// resolves performs one massdns-style lookup: A record, CNAME chase,
// routing-table filter. dropped reports an answer discarded as unrouted.
func resolves(u *dnssim.Universe, fqdn string, routes RouteChecker, maxCNAME int) (ok, dropped bool) {
	r, _ := u.ResolveChain(fqdn, dnsmsg.TypeA, maxCNAME)
	if r.RCode != dnsmsg.RCodeSuccess || len(r.Records) == 0 {
		return false, false
	}
	for _, rr := range r.Records {
		if rr.Type == dnsmsg.TypeA && rr.A != nil {
			if routes == nil || routes.InRoutingTable(rr.A) {
				return true, false
			}
			dropped = true
		}
	}
	return false, dropped
}

// SonarDB is a forward-DNS database snapshot (Section 4.1's Rapid7 Sonar
// stand-in): a set of FQDNs.
type SonarDB map[string]struct{}

// Contains reports membership.
func (s SonarDB) Contains(fqdn string) bool {
	_, ok := s[fqdn]
	return ok
}

// CompareSonar splits newly found FQDNs into those already known to Sonar
// and those genuinely new (17.7M of 18.8M in the paper).
func CompareSonar(newFQDNs []string, sonar SonarDB) (known, unknown uint64) {
	for _, n := range newFQDNs {
		if sonar.Contains(n) {
			known++
		} else {
			unknown++
		}
	}
	return known, unknown
}

// OverlapStats reports the corpus/Sonar overlap measures of Section 4.1:
// the fraction of corpus registrable domains present in Sonar and the
// fraction of corpus subdomain labels appearing as Sonar labels.
func OverlapStats(census *Census, sonar SonarDB, list interface {
	Split(string) ([]string, string, string, error)
}) (domainOverlap, labelOverlap float64) {
	sonarDomains := make(map[string]bool)
	sonarLabels := make(map[string]bool)
	for fqdn := range sonar {
		sub, reg, _, err := list.Split(fqdn)
		if err != nil {
			continue
		}
		sonarDomains[reg] = true
		for _, l := range sub {
			sonarLabels[l] = true
		}
	}
	var domTotal, domHit uint64
	for _, domains := range census.DomainsBySuffix {
		for _, d := range domains {
			domTotal++
			if sonarDomains[d] {
				domHit++
			}
		}
	}
	var labTotal, labHit uint64
	for _, kv := range census.Labels.TopK(census.Labels.Len()) {
		labTotal++
		if sonarLabels[kv.Key] {
			labHit++
		}
	}
	return stats.Percent(domHit, domTotal), stats.Percent(labHit, labTotal)
}
