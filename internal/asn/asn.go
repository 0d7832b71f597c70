// Package asn models the autonomous-system layer the paper's analyses
// need: an AS registry with operator metadata, IP-prefix to AS mapping,
// and the border-router routing-table membership test Section 4.3 uses
// to discard answers pointing at unrouted space ("we disregard IP
// addresses not part of our border router's routing table").
package asn

import (
	"fmt"
	"net"
	"sort"
	"sync"
)

// AS describes an autonomous system.
type AS struct {
	Number  uint32
	Name    string
	Country string
	// IgnoresAbuse marks networks known to drop abuse reports (Quasi
	// Networks in the paper).
	IgnoresAbuse bool
}

// String renders "ASnnnn (Name)".
func (a *AS) String() string { return fmt.Sprintf("AS%d (%s)", a.Number, a.Name) }

// Registry maps IP prefixes to ASes and answers routing-table queries.
type Registry struct {
	mu       sync.RWMutex
	ases     map[uint32]*AS
	prefixes []prefixEntry // sorted by prefix length descending for LPM
}

type prefixEntry struct {
	net *net.IPNet
	asn uint32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ases: make(map[uint32]*AS)}
}

// AddAS registers an AS (idempotent by number).
func (r *Registry) AddAS(a AS) *AS {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.ases[a.Number]; ok {
		return existing
	}
	cp := a
	r.ases[a.Number] = &cp
	return &cp
}

// AS returns the AS with the given number, or nil.
func (r *Registry) AS(number uint32) *AS {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ases[number]
}

// Announce maps a CIDR prefix to an AS number.
func (r *Registry) Announce(cidr string, asn uint32) error {
	_, ipnet, err := net.ParseCIDR(cidr)
	if err != nil {
		return fmt.Errorf("asn: bad prefix %q: %w", cidr, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prefixes = append(r.prefixes, prefixEntry{net: ipnet, asn: asn})
	// Keep longest prefixes first so Lookup's first hit is the best match.
	sort.SliceStable(r.prefixes, func(i, j int) bool {
		li, _ := r.prefixes[i].net.Mask.Size()
		lj, _ := r.prefixes[j].net.Mask.Size()
		return li > lj
	})
	return nil
}

// Lookup returns the origin AS for ip, if any prefix covers it.
func (r *Registry) Lookup(ip net.IP) (*AS, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, pe := range r.prefixes {
		if pe.net.Contains(ip) {
			return r.ases[pe.asn], true
		}
	}
	return nil, false
}

// InRoutingTable reports whether any announced prefix covers ip — the
// paper's filter against misconfigured DNS servers returning junk
// addresses.
func (r *Registry) InRoutingTable(ip net.IP) bool {
	_, ok := r.Lookup(ip)
	return ok
}

// Well-known AS numbers from the paper's Table 4 and Section 6.2.
const (
	ASGoogle       = 15169
	ASOneAndOne    = 8560
	ASAmazon       = 16509
	ASAmazonAES    = 14618
	ASDigitalOcean = 14061
	ASDeteque      = 54054
	ASOpenDNS      = 36692
	ASPetersburg   = 44050
	ASHetzner      = 24940
	ASOnlineSAS    = 12876
	ASACN          = 19397
	ASQuasi        = 29073
)

// DefaultRegistry builds a registry with the ASes the paper names,
// announced over TEST-NET and documentation prefixes plus synthetic
// 10.0.0.0/8 carve-outs, and a pool of anonymous "batch scanner" ASes
// (the 76 ASes that queried one or two honeypot domains).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	known := []struct {
		as     AS
		prefix string
	}{
		{AS{Number: ASGoogle, Name: "Google", Country: "US"}, "10.15.0.0/16"},
		{AS{Number: ASOneAndOne, Name: "1&1", Country: "DE"}, "10.85.0.0/16"},
		{AS{Number: ASAmazon, Name: "Amazon", Country: "US"}, "10.16.0.0/16"},
		{AS{Number: ASAmazonAES, Name: "Amazon AES", Country: "US"}, "10.17.0.0/16"},
		{AS{Number: ASDigitalOcean, Name: "DigitalOcean", Country: "US"}, "10.14.0.0/16"},
		{AS{Number: ASDeteque, Name: "Deteque (Spamhaus)", Country: "US"}, "10.54.0.0/16"},
		{AS{Number: ASOpenDNS, Name: "OpenDNS", Country: "US"}, "10.36.0.0/16"},
		{AS{Number: ASPetersburg, Name: "Petersburg Internet", Country: "RU"}, "10.44.0.0/16"},
		{AS{Number: ASHetzner, Name: "Hetzner", Country: "DE"}, "10.24.0.0/16"},
		{AS{Number: ASOnlineSAS, Name: "Online SAS", Country: "FR"}, "10.12.0.0/16"},
		{AS{Number: ASACN, Name: "ACN", Country: "US"}, "10.19.0.0/16"},
		{AS{Number: ASQuasi, Name: "Quasi Networks", Country: "SC", IgnoresAbuse: true}, "10.29.0.0/16"},
	}
	for _, k := range known {
		r.AddAS(k.as)
		if err := r.Announce(k.prefix, k.as.Number); err != nil {
			panic(err)
		}
	}
	// Batch-scanner tail: 76 anonymous ASes (Section 6.2).
	for i := 0; i < 76; i++ {
		num := uint32(60000 + i)
		r.AddAS(AS{Number: num, Name: fmt.Sprintf("batch-scanner-%d", i)})
		if err := r.Announce(fmt.Sprintf("10.1%02d.0.0/16", i), num); err != nil {
			panic(err)
		}
	}
	// Routed "site" space for the synthetic Internet's web servers.
	siteAS := r.AddAS(AS{Number: 64500, Name: "Synthetic Hosting"})
	if err := r.Announce("192.0.2.0/24", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("198.51.100.0/24", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("203.0.113.0/24", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("100.64.0.0/10", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("2001:db8::/32", siteAS.Number); err != nil {
		panic(err)
	}
	return r
}
