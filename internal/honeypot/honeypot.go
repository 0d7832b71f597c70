// Package honeypot implements the CT honeypot of Section 6: unique,
// hard-to-guess subdomains whose existence is leaked exclusively through
// Certificate Transparency, an authoritative DNS vantage point recording
// every query (including EDNS Client Subnet data), a connection monitor
// on the subdomains' addresses, and a population of attacker agents that
// watch CT logs (streaming or in batches) and react — reproducing
// Table 4 and the Section 6.2 analysis.
package honeypot

import (
	"fmt"
	"net"
	"sort"
	"time"

	"ctrise/internal/ca"
	"ctrise/internal/ctlog"
	"ctrise/internal/dnsmsg"
	"ctrise/internal/dnsname"
	"ctrise/internal/dnssim"
	"ctrise/internal/ecosystem"
	"ctrise/internal/stats"
)

// Subdomain is one honeypot name.
type Subdomain struct {
	// Label is the random 12-character label; FQDN the full name.
	Label string
	FQDN  string
	// IPv4 is the shared monitor address; IPv6 is the unique,
	// never-otherwise-used address whose traffic would prove
	// CT-sourced targeting.
	IPv4 net.IP
	IPv6 net.IP
	// CTLogTime is when the precertificate entered the log.
	CTLogTime time.Time
	// LogIndex is the entry index in the log.
	LogIndex uint64
}

// DNSEvent is one query observed at the authoritative server.
type DNSEvent struct {
	Time time.Time
	Sub  int // subdomain index
	AS   uint32
	Type dnsmsg.Type
	// ECS is the EDNS Client Subnet ("a.b.c.0/24") when the query came
	// through a public resolver that forwards it; empty otherwise.
	ECS string
}

// ConnEvent is one inbound connection (or scan probe) at a honeypot
// address.
type ConnEvent struct {
	Time time.Time
	Sub  int
	AS   uint32
	Port int
	// IPv6 marks a connection to the unique AAAA address.
	IPv6 bool
	// HTTP marks ports 80/443 application-layer contact.
	HTTP bool
}

// Honeypot owns the subdomains and the observation records.
type Honeypot struct {
	// BaseDomain anchors the honeypot zone.
	BaseDomain string
	Subs       []*Subdomain
	Zone       *dnssim.Zone

	dnsEvents  []DNSEvent
	connEvents []ConnEvent

	clock *ecosystem.Clock
	ca    *ca.CA
	log   *ctlog.Log
}

// New creates a honeypot rooted at baseDomain, issuing its certificates
// through caInst into log (the CT leakage channel).
func New(baseDomain string, clock *ecosystem.Clock, caInst *ca.CA, log *ctlog.Log) *Honeypot {
	return &Honeypot{
		BaseDomain: baseDomain,
		Zone:       dnssim.NewZone(baseDomain),
		clock:      clock,
		ca:         caInst,
		log:        log,
	}
}

// Deploy creates one honeypot subdomain at the current virtual time:
// random label, A and unique AAAA records (never entered into rDNS),
// and a CT-logged certificate — the only channel that reveals the name.
// rngLabel is the pre-drawn label, letting callers pin Table 4's
// schedule; pass "" to draw a fresh one from labelRand.
func (h *Honeypot) Deploy(label string) (*Subdomain, error) {
	idx := len(h.Subs)
	fqdn := dnsname.Prepend(label, h.BaseDomain)
	sub := &Subdomain{
		Label: label,
		FQDN:  fqdn,
		IPv4:  net.IPv4(198, 51, 100, byte(10+idx)),
		IPv6:  net.ParseIP(fmt.Sprintf("2001:db8:77::%x", 0x100+idx)),
	}
	h.Zone.AddA(fqdn, sub.IPv4)
	h.Zone.AddAAAA(fqdn, sub.IPv6)

	// Obtain the certificate; the CA logs the precertificate, which is
	// the leak.
	iss, err := h.ca.Issue(ca.Request{Names: []string{fqdn}, EmbedSCTs: true})
	if err != nil {
		return nil, fmt.Errorf("honeypot: issuing for %s: %w", fqdn, err)
	}
	_ = iss
	sub.CTLogTime = h.clock.Now()
	// The precert is staged; publishing sequences it, after which its
	// index is the last of the tree.
	if _, err := h.log.PublishSTH(); err != nil {
		return nil, err
	}
	sub.LogIndex = h.log.TreeSize() - 1
	h.Subs = append(h.Subs, sub)
	return sub, nil
}

// RecordDNS ingests a DNS observation.
func (h *Honeypot) RecordDNS(ev DNSEvent) { h.dnsEvents = append(h.dnsEvents, ev) }

// RecordConn ingests a connection observation.
func (h *Honeypot) RecordConn(ev ConnEvent) { h.connEvents = append(h.connEvents, ev) }

// DNSEvents returns the DNS observations (sorted by time).
func (h *Honeypot) DNSEvents() []DNSEvent {
	sort.SliceStable(h.dnsEvents, func(i, j int) bool { return h.dnsEvents[i].Time.Before(h.dnsEvents[j].Time) })
	return h.dnsEvents
}

// ConnEvents returns the connection observations (sorted by time).
func (h *Honeypot) ConnEvents() []ConnEvent {
	sort.SliceStable(h.connEvents, func(i, j int) bool { return h.connEvents[i].Time.Before(h.connEvents[j].Time) })
	return h.connEvents
}

// Table4Row is one row of Table 4.
type Table4Row struct {
	Name         string // A..K
	CTLogEntry   time.Time
	FirstDNS     time.Time
	DeltaDNS     time.Duration
	Queries      int
	ASes         int
	ECSSubnets   int
	FirstThree   []uint32
	FirstHTTP    time.Time
	DeltaHTTP    time.Duration
	HTTPASNs     []uint32
	HasHTTP      bool
	IPv6Contacts int
}

// Table4 computes the per-subdomain summary.
func (h *Honeypot) Table4() []Table4Row {
	rows := make([]Table4Row, len(h.Subs))
	type firstAS struct {
		t  time.Time
		as uint32
	}
	dnsAS := make([]map[uint32]time.Time, len(h.Subs))
	ecs := make([]map[string]bool, len(h.Subs))
	for i := range rows {
		rows[i] = Table4Row{
			Name:       string(rune('A' + i)),
			CTLogEntry: h.Subs[i].CTLogTime,
		}
		dnsAS[i] = make(map[uint32]time.Time)
		ecs[i] = make(map[string]bool)
	}
	for _, ev := range h.DNSEvents() {
		r := &rows[ev.Sub]
		r.Queries++
		if r.FirstDNS.IsZero() || ev.Time.Before(r.FirstDNS) {
			r.FirstDNS = ev.Time
		}
		if _, seen := dnsAS[ev.Sub][ev.AS]; !seen {
			dnsAS[ev.Sub][ev.AS] = ev.Time
		}
		if ev.ECS != "" {
			ecs[ev.Sub][ev.ECS] = true
		}
	}
	for _, ev := range h.ConnEvents() {
		r := &rows[ev.Sub]
		if ev.IPv6 {
			r.IPv6Contacts++
			continue
		}
		if !ev.HTTP {
			continue
		}
		if !r.HasHTTP || ev.Time.Before(r.FirstHTTP) {
			r.FirstHTTP = ev.Time
			r.HasHTTP = true
		}
		found := false
		for _, as := range r.HTTPASNs {
			if as == ev.AS {
				found = true
			}
		}
		if !found {
			r.HTTPASNs = append(r.HTTPASNs, ev.AS)
		}
	}
	for i := range rows {
		r := &rows[i]
		r.ASes = len(dnsAS[i])
		r.ECSSubnets = len(ecs[i])
		if !r.FirstDNS.IsZero() {
			r.DeltaDNS = r.FirstDNS.Sub(r.CTLogEntry)
		}
		if r.HasHTTP {
			r.DeltaHTTP = r.FirstHTTP.Sub(r.CTLogEntry)
		}
		// First three querying ASes by first-query time.
		type ft struct {
			as uint32
			t  time.Time
		}
		var fts []ft
		for as, t := range dnsAS[i] {
			fts = append(fts, ft{as, t})
		}
		sort.Slice(fts, func(a, b int) bool {
			if !fts[a].t.Equal(fts[b].t) {
				return fts[a].t.Before(fts[b].t)
			}
			return fts[a].as < fts[b].as
		})
		for j := 0; j < len(fts) && j < 3; j++ {
			r.FirstThree = append(r.FirstThree, fts[j].as)
		}
		sort.Slice(r.HTTPASNs, func(a, b int) bool { return r.HTTPASNs[a] < r.HTTPASNs[b] })
	}
	return rows
}

// ECSStats summarizes EDNS Client Subnet usage across all subdomains
// (Section 6.2: 12 unique /24 subnets, top 3 used 115/25/10 times).
func (h *Honeypot) ECSStats() *stats.Counter {
	c := stats.NewCounter()
	for _, ev := range h.dnsEvents {
		if ev.ECS != "" {
			c.Inc(ev.ECS)
		}
	}
	return c
}

// PortScanStats returns, per AS, the set of distinct ports probed (the
// Quasi Networks host scanned 30 ports).
func (h *Honeypot) PortScanStats() map[uint32]map[int]bool {
	out := make(map[uint32]map[int]bool)
	for _, ev := range h.connEvents {
		if ev.IPv6 {
			continue
		}
		m := out[ev.AS]
		if m == nil {
			m = make(map[int]bool)
			out[ev.AS] = m
		}
		m[ev.Port] = true
	}
	return out
}

// IPv6Contacts counts inbound packets to the unique AAAA addresses —
// zero in the paper, excepting CA validation which the experiment
// filters before recording.
func (h *Honeypot) IPv6Contacts() int {
	n := 0
	for _, ev := range h.connEvents {
		if ev.IPv6 {
			n++
		}
	}
	return n
}
