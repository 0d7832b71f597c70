// Package scanner implements the active-measurement half of Section 3:
// building the HTTPS server population (domains resolved to IPs with
// ~12-fold TLS-SNI certificate multiplexing per IP), the Internet-wide
// certificate grab of Section 3.3, and the invalid-embedded-SCT sweep of
// Section 3.4 that reproduces the GlobalSign / D-TRUST / NetLock /
// TeliaSonera misissuance findings.
package scanner

import (
	"fmt"
	"math/rand"
	"net"

	"ctrise/internal/ca"
	"ctrise/internal/certs"
	"ctrise/internal/ecosystem"
	"ctrise/internal/sct"
	"ctrise/internal/stats"
)

// Site is one HTTPS endpoint of the scan population.
type Site struct {
	Domain string
	IP     net.IP
	// Cert is the certificate the server presents.
	Cert *certs.Certificate
	// IssuerKeyHash supports SCT validation against the cert's issuer.
	IssuerKeyHash [32]byte
	// TLSSCT/OCSPSCT mark SCT delivery via the respective channel (the
	// server sends SCTs it obtained by submitting its final cert itself).
	TLSSCT  bool
	OCSPSCT bool
	// CAOrg is the issuing organization.
	CAOrg string
	// Fault records an injected misissuance, if any.
	Fault ca.Fault
}

// PopConfig parameterizes the population builder.
type PopConfig struct {
	// Seed drives all randomness. Every site derives a private RNG from
	// (Seed, site index) by seed-splitting, so the population's
	// statistics are identical at every parallelism setting.
	Seed int64
	// NumSites defaults to the world's domain count.
	NumSites int
	// Parallelism bounds the builder's worker fan-out: 0 means
	// GOMAXPROCS, 1 runs every stage inline on the calling goroutine.
	Parallelism int
	// SitesPerIP is the TLS-SNI multiplexing factor (the paper observes
	// ≈12 certificates per IP). Default 12.
	SitesPerIP int
	// EmbedFraction is the fraction of certificates with embedded SCTs
	// (68.7% in Section 3.3). Default 0.687.
	EmbedFraction float64
	// Faulty counts of misissued certificates, matching Section 3.4:
	// 12 GlobalSign-class, 2 D-TRUST-class, 1 NetLock-class,
	// 1 TeliaSonera-class. These absolute counts are not scaled, exactly
	// as in the paper.
	FaultySANReorder int
	FaultyExtReorder int
	FaultySANReplace int
	FaultyStaleSCT   int
}

func (c *PopConfig) setDefaults(w *ecosystem.World) {
	if c.NumSites <= 0 {
		c.NumSites = len(w.Domains)
	}
	if c.SitesPerIP <= 0 {
		c.SitesPerIP = 12
	}
	if c.EmbedFraction <= 0 {
		c.EmbedFraction = 0.687
	}
	if c.FaultySANReorder == 0 && c.FaultyExtReorder == 0 && c.FaultySANReplace == 0 && c.FaultyStaleSCT == 0 {
		c.FaultySANReorder = 12
		c.FaultyExtReorder = 2
		c.FaultySANReplace = 1
		c.FaultyStaleSCT = 1
	}
}

// caMix is the certificate-count CA distribution of the 2018 population
// (Let's Encrypt dominant by count).
var caMix = []struct {
	org    string
	weight float64
}{
	{ecosystem.CALetsEncrypt, 0.90},
	{ecosystem.CADigiCert, 0.05},
	{ecosystem.CAComodo, 0.03},
	{ecosystem.CAGlobalSign, 0.015},
	{ecosystem.CAOther, 0.005},
}

func drawCA(rng *rand.Rand) string {
	p := rng.Float64()
	var cum float64
	for _, m := range caMix {
		cum += m.weight
		if p < cum {
			return m.org
		}
	}
	return ecosystem.CAOther
}

// Seed-split salts naming the scanner's independent random streams.
const (
	saltSite   = 0x73697465 // "site"
	saltFaults = 0x666c74   // "flt"
)

// BuildPopulation issues one certificate per site through the world's
// CAs and log policies and assigns IPs with SNI multiplexing. It also
// injects the configured misissued certificates through fault-mode CAs
// named after the paper's four cases.
//
// Sites are built by up to PopConfig.Parallelism workers, each site
// drawing from its own seed-derived RNG, so the population — site order,
// domains, CA mix, embed flags, SCT channels — is independent of worker
// count and scheduling. Serial numbers are too: each CA reserves one
// block for all its sites, in w.Specs order, and a site's serial is the
// block base plus its rank among that CA's sites.
func BuildPopulation(w *ecosystem.World, cfg PopConfig) ([]*Site, error) {
	cfg.setDefaults(w)
	siteRNG := func(i int) *rand.Rand {
		return ecosystem.NewRand(ecosystem.DeriveSeed(cfg.Seed, saltSite, uint64(i)))
	}
	// A site's CA is the first draw of its RNG, so one pass ranks every
	// site among its CA's sites.
	rank := make([]uint64, cfg.NumSites)
	perCA := make(map[string]uint64)
	for i := range rank {
		org := drawCA(siteRNG(i))
		rank[i] = perCA[org]
		perCA[org]++
	}
	specByOrg := make(map[string]ecosystem.CASpec, len(w.Specs))
	base := make(map[string]uint64, len(w.Specs))
	for _, s := range w.Specs {
		specByOrg[s.Org] = s
		if n := perCA[s.Org]; n > 0 {
			base[s.Org] = w.CAs[s.Org].ReserveSerials(n)
		}
	}

	sites := make([]*Site, cfg.NumSites)
	var buildErr ecosystem.FirstError
	ecosystem.ForEach(cfg.NumSites, cfg.Parallelism, func(i int) {
		rng := siteRNG(i)
		domain := w.Domains[i%len(w.Domains)]
		org := drawCA(rng)
		spec := specByOrg[org]
		caInst := w.CAs[org]
		embed := rng.Float64() < cfg.EmbedFraction

		names := ecosystem.NamesForDomain(rng, domain.Name, domain.Suffix)
		prep, err := caInst.PrepareSerial(ca.Request{
			Names:     names,
			EmbedSCTs: embed,
			Logs:      submitters(w, spec.Policy(rng)),
		}, base[org]+rank[i])
		var iss *ca.Issued
		if err == nil {
			iss, err = prep.Submit()
		}
		if err != nil {
			buildErr.Record(i, fmt.Errorf("scanner: issuing for %s: %w", domain.Name, err))
			return
		}
		site := &Site{
			Domain:        domain.Name,
			Cert:          iss.Final,
			IssuerKeyHash: caInst.IssuerKeyHash(),
			CAOrg:         org,
		}
		if !embed {
			// A sliver of non-embedding sites deliver SCTs out of band
			// (0.78% of certificates via TLS extension, ~0.003% via OCSP).
			switch p := rng.Float64(); {
			case p < 0.025:
				site.TLSSCT = true
			case p < 0.0251:
				site.OCSPSCT = true
			}
		}
		sites[i] = site
	})
	if err := buildErr.Err(); err != nil {
		return nil, err
	}

	faulty, err := injectFaults(w, cfg, ecosystem.NewRand(ecosystem.DeriveSeed(cfg.Seed, saltFaults)))
	if err != nil {
		return nil, err
	}
	sites = append(sites, faulty...)

	// IP assignment: consecutive sites share an IP, SitesPerIP at a time,
	// from the 100.64.0.0/10 block announced in the synthetic table.
	for i, s := range sites {
		block := i / cfg.SitesPerIP
		s.IP = net.IPv4(100, 64+byte(block>>16), byte(block>>8), byte(block))
	}
	return sites, nil
}

func submitters(w *ecosystem.World, names []string) []ca.LogSubmitter {
	out := make([]ca.LogSubmitter, 0, len(names))
	for _, n := range names {
		if l, ok := w.Logs[n]; ok {
			out = append(out, l)
		}
	}
	return out
}

// faultyCASpec describes one of the paper's four misissuing CAs.
type faultyCASpec struct {
	name  string
	fault ca.Fault
	count int
}

func injectFaults(w *ecosystem.World, cfg PopConfig, rng *rand.Rand) ([]*Site, error) {
	specs := []faultyCASpec{
		{"GlobalSign (faulty)", ca.FaultSANReorder, cfg.FaultySANReorder},
		{"D-TRUST", ca.FaultExtReorder, cfg.FaultyExtReorder},
		{"NetLock", ca.FaultSANReplace, cfg.FaultySANReplace},
		{"TeliaSonera", ca.FaultStaleSCT, cfg.FaultyStaleSCT},
	}
	logs := []ca.LogSubmitter{w.Logs[ecosystem.LogGooglePilot], w.Logs[ecosystem.LogGoogleRocketeer]}
	var out []*Site
	for _, fs := range specs {
		caInst, err := ca.New(ca.Config{Name: fs.name, Org: fs.name, Logs: logs, Clock: w.Clock.Now})
		if err != nil {
			return nil, err
		}
		for i := 0; i < fs.count; i++ {
			domain := w.RandomDomain(rng)
			req := ca.Request{
				Names:     []string{domain.Name, "www." + domain.Name, "mail." + domain.Name},
				EmbedSCTs: true,
				Fault:     fs.fault,
			}
			if fs.fault == ca.FaultSANReorder {
				req.IPAddresses = []string{"192.0.2.77"} // the GlobalSign case mixed DNS and IP SANs
			}
			if fs.fault == ca.FaultStaleSCT {
				// The TeliaSonera case was a re-issuance: issue an honest
				// predecessor first.
				if _, err := caInst.Issue(ca.Request{Names: req.Names, EmbedSCTs: true}); err != nil {
					return nil, err
				}
			}
			iss, err := caInst.Issue(req)
			if err != nil {
				return nil, err
			}
			out = append(out, &Site{
				Domain:        domain.Name,
				Cert:          iss.Final,
				IssuerKeyHash: caInst.IssuerKeyHash(),
				CAOrg:         fs.name,
				Fault:         fs.fault,
			})
		}
	}
	return out, nil
}

// ScanStats aggregates the Section 3.3 numbers.
type ScanStats struct {
	// TotalCerts is the number of unique certificates encountered.
	TotalCerts uint64
	// WithEmbeddedSCT counts certificates with an embedded SCT list.
	WithEmbeddedSCT uint64
	// TLSExtCerts / OCSPCerts count certificates whose SCTs arrive via
	// the TLS extension / stapled OCSP.
	TLSExtCerts uint64
	OCSPCerts   uint64
	// IPsServingSCT counts distinct IPs serving at least one SCT.
	IPsServingSCT uint64
	// TotalIPs counts distinct IPs scanned.
	TotalIPs uint64
	// CertsByLog counts, per log name, certificates embedding an SCT from
	// that log (a certificate with SCTs from two logs counts for both —
	// hence percentages can exceed 100 in sum, as in the paper).
	CertsByLog *stats.Counter
}

// LogPercent returns the share of embedded-SCT certificates carrying an
// SCT from the named log.
func (s *ScanStats) LogPercent(log string) float64 {
	return stats.Percent(s.CertsByLog.Get(log), s.WithEmbeddedSCT)
}

// Merge folds another ScanStats into s — the bulk reduction step of the
// parallel sweep. Every merged field is additive, so merge order does
// not affect the result. The IP-level counters (TotalIPs,
// IPsServingSCT) are deliberately not summed: they derive from dedup
// sets that only the caller holds, and summing them would double-count
// IPs shared between the two sides.
func (s *ScanStats) Merge(o *ScanStats) {
	s.TotalCerts += o.TotalCerts
	s.WithEmbeddedSCT += o.WithEmbeddedSCT
	s.TLSExtCerts += o.TLSExtCerts
	s.OCSPCerts += o.OCSPCerts
	s.CertsByLog.Merge(o.CertsByLog)
}

// scanChunk is the number of sites one sweep worker processes per work
// unit.
const scanChunk = 512

// scanPartial is one worker chunk's private, lock-free aggregate.
type scanPartial struct {
	stats      ScanStats
	ips        map[string]bool
	ipsWithSCT map[string]bool
}

// ScanParallel walks the population like the zmap+TLS scanner pipeline:
// one certificate grab per site, deduplicated IP accounting, per-log
// attribution by decoding each certificate's SCT list. logNames maps log
// IDs to display names. parallelism bounds the workers (0 means
// GOMAXPROCS, 1 runs the sweep inline). Sites are chunked; workers build
// private partial statistics and IP sets, and the additive merge makes
// the result identical at every parallelism setting.
func ScanParallel(sites []*Site, logNames map[sct.LogID]string, parallelism int) (*ScanStats, error) {
	chunks := ecosystem.Ranges(len(sites), scanChunk)
	partials := make([]*scanPartial, len(chunks))
	var scanErr ecosystem.FirstError
	ecosystem.ForEach(len(chunks), parallelism, func(ci int) {
		p := &scanPartial{
			stats:      ScanStats{CertsByLog: stats.NewCounter()},
			ips:        make(map[string]bool),
			ipsWithSCT: make(map[string]bool),
		}
		partials[ci] = p
		// Consecutive sites share IPs (the SNI multiplexing assignment),
		// so memoize the formatted key instead of calling IP.String()
		// once per site.
		lastIP, lastKey := net.IP(nil), ""
		for _, site := range sites[chunks[ci].Lo:chunks[ci].Hi] {
			st := &p.stats
			st.TotalCerts++
			if !site.IP.Equal(lastIP) {
				lastIP, lastKey = site.IP, site.IP.String()
			}
			ipKey := lastKey
			p.ips[ipKey] = true
			served := site.TLSSCT || site.OCSPSCT
			if site.TLSSCT {
				st.TLSExtCerts++
			}
			if site.OCSPSCT {
				st.OCSPCerts++
			}
			if site.Cert.HasSCTList() {
				st.WithEmbeddedSCT++
				served = true
				scts, err := site.Cert.SCTs()
				if err != nil {
					scanErr.Record(ci, fmt.Errorf("scanner: SCTs of %s: %w", site.Domain, err))
					return
				}
				seen := make(map[string]bool, len(scts))
				for _, s := range scts {
					name, ok := logNames[s.LogID]
					if !ok {
						name = s.LogID.String()[:12]
					}
					if !seen[name] {
						st.CertsByLog.Inc(name)
						seen[name] = true
					}
				}
			}
			if served {
				p.ipsWithSCT[ipKey] = true
			}
		}
	})
	if err := scanErr.Err(); err != nil {
		return nil, err
	}

	out := &ScanStats{CertsByLog: stats.NewCounter()}
	ips := make(map[string]bool)
	ipsWithSCT := make(map[string]bool)
	for _, p := range partials {
		out.Merge(&p.stats)
		for k := range p.ips {
			ips[k] = true
		}
		for k := range p.ipsWithSCT {
			ipsWithSCT[k] = true
		}
	}
	out.TotalIPs = uint64(len(ips))
	out.IPsServingSCT = uint64(len(ipsWithSCT))
	return out, nil
}

// InvalidCert is one Section 3.4 finding.
type InvalidCert struct {
	Domain   string
	CAOrg    string
	Problems []ca.SCTProblem
}

// DetectInvalidSCTsParallel runs the embedded-SCT validator over every
// site certificate, returning the misissued ones grouped like Section
// 3.4 reports them. parallelism bounds the workers (0 means GOMAXPROCS,
// 1 runs inline). Site chunks are validated concurrently into private
// finding lists which concatenate in chunk order, so findings come back
// in site order at every parallelism setting.
func DetectInvalidSCTsParallel(sites []*Site, verifiers map[sct.LogID]sct.SCTVerifier, parallelism int) ([]InvalidCert, error) {
	chunks := ecosystem.Ranges(len(sites), scanChunk)
	found := make([][]InvalidCert, len(chunks))
	var detectErr ecosystem.FirstError
	ecosystem.ForEach(len(chunks), parallelism, func(ci int) {
		for _, site := range sites[chunks[ci].Lo:chunks[ci].Hi] {
			if !site.Cert.HasSCTList() {
				continue
			}
			res, err := ca.ValidateEmbeddedSCTs(site.Cert, site.IssuerKeyHash, verifiers)
			if err != nil {
				detectErr.Record(ci, fmt.Errorf("scanner: validating %s: %w", site.Domain, err))
				return
			}
			if res.Invalid() {
				found[ci] = append(found[ci], InvalidCert{Domain: site.Domain, CAOrg: site.CAOrg, Problems: res.Problems})
			}
		}
	})
	if err := detectErr.Err(); err != nil {
		return nil, err
	}
	var out []InvalidCert
	for _, f := range found {
		out = append(out, f...)
	}
	return out, nil
}

// CountByCA groups Section 3.4 findings per CA organization.
func CountByCA(findings []InvalidCert) map[string]int {
	out := make(map[string]int)
	for _, f := range findings {
		out[f.CAOrg]++
	}
	return out
}
