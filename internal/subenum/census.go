// Package subenum implements Section 4: the census of subdomain labels
// leaked through CT-logged certificates (Table 2), the per-suffix label
// statistics of Section 4.2, and the full Section 4.3 enumeration
// methodology — strategic FQDN construction from frequent labels,
// massdns-style concurrent verification with pseudorandom control names
// against wildcard zones, CNAME chasing, routing-table filtering, and the
// Sonar comparison.
//
// The census, the candidate construction and the verification all fan
// out on ecosystem.ForEach (RunCensusParallel, ConstructConfig and
// VerifyConfig.Parallelism; 1 runs every stage inline on the calling
// goroutine). Chunk boundaries depend only on the input and every
// aggregate is additive or merged in chunk order, so output is identical
// at any worker count.
package subenum

import (
	"sort"

	"ctrise/internal/dnsname"
	"ctrise/internal/ecosystem"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
)

// Census is the outcome of parsing a CT name corpus.
type Census struct {
	// Labels counts each subdomain label across all suffixes (Table 2).
	Labels *stats.Counter
	// LabelsBySuffix counts labels per public suffix (Section 4.2's
	// "most common subdomain label for each public suffix").
	LabelsBySuffix map[string]*stats.Counter
	// DomainsBySuffix groups the corpus's registrable domains by suffix,
	// sorted per suffix for deterministic output.
	DomainsBySuffix map[string][]string
	// ValidFQDNs is the number of names that survived validation.
	ValidFQDNs uint64
	// Rejected counts names eliminated by FQDN validation (the paper
	// filters invalid names with a validators library).
	Rejected uint64
}

// RunCensus parses a deduplicated CT name corpus with GOMAXPROCS-way
// parallelism: it validates each FQDN, splits it at the registrable
// domain per the PSL, and counts subdomain labels. Wildcard prefixes
// ("*.") are stripped first, as certificate names often carry them.
func RunCensus(names map[string]struct{}, list *psl.List) *Census {
	return RunCensusParallel(names, list, 0)
}

// censusPartial is one worker's private aggregate over a chunk of names.
type censusPartial struct {
	labels         map[string]uint64
	labelsBySuffix map[string]map[string]uint64
	// domains maps registrable domain → suffix; the merge step dedups
	// across workers (two chunks may both see a domain).
	domains    map[string]string
	validFQDNs uint64
	rejected   uint64
}

func newCensusPartial() *censusPartial {
	return &censusPartial{
		labels:         make(map[string]uint64),
		labelsBySuffix: make(map[string]map[string]uint64),
		domains:        make(map[string]string),
	}
}

// observe parses one raw certificate name into the aggregate.
func (p *censusPartial) observe(raw string, list *psl.List) {
	name := dnsname.Normalize(dnsname.TrimWildcard(raw))
	if !dnsname.IsValidFQDN(name) {
		p.rejected++
		return
	}
	sub, regDomain, suffix, err := list.Split(name)
	if err != nil {
		p.rejected++
		return
	}
	p.validFQDNs++
	p.domains[regDomain] = suffix
	for _, label := range sub {
		p.labels[label]++
		sc := p.labelsBySuffix[suffix]
		if sc == nil {
			sc = make(map[string]uint64)
			p.labelsBySuffix[suffix] = sc
		}
		sc[label]++
	}
}

// censusChunk is the number of names one census task parses.
const censusChunk = 1024

// RunCensusParallel is RunCensus with an explicit worker bound (0 means
// GOMAXPROCS, 1 runs inline). The corpus is split into censusChunk-name
// chunks, each chunk builds a private aggregate, and the merge is
// deterministic: counts are additive and per-suffix domain lists are
// sorted.
func RunCensusParallel(names map[string]struct{}, list *psl.List, parallelism int) *Census {
	all := make([]string, 0, len(names))
	for raw := range names {
		all = append(all, raw)
	}
	chunks := ecosystem.Ranges(len(all), censusChunk)
	partials := make([]*censusPartial, len(chunks))
	ecosystem.ForEach(len(chunks), parallelism, func(i int) {
		p := newCensusPartial()
		for _, raw := range all[chunks[i].Lo:chunks[i].Hi] {
			p.observe(raw, list)
		}
		partials[i] = p
	})
	return mergeCensusPartials(partials)
}

// RunCensusSet is the census over a sharded name set — the zero-copy
// handoff from the harvest: instead of materializing the corpus into an
// intermediate map[string]struct{}, workers consume the dedup set's
// shards in place (each key lives in exactly one shard, so shards
// partition the corpus). parallelism 0 means GOMAXPROCS; output is
// identical to RunCensusParallel over the same names in a map.
func RunCensusSet(names *stats.StringSet, list *psl.List, parallelism int) *Census {
	shards := names.NumShards()
	partials := make([]*censusPartial, shards)
	ecosystem.ForEach(shards, parallelism, func(i int) {
		p := newCensusPartial()
		names.ForEachShard(i, func(raw string) { p.observe(raw, list) })
		partials[i] = p
	})
	return mergeCensusPartials(partials)
}

// mergeCensusPartials folds worker aggregates into the final census.
// Counts are additive and per-suffix domain lists are sorted, so the
// result is independent of partial order.
func mergeCensusPartials(partials []*censusPartial) *Census {
	c := &Census{
		Labels:          stats.NewCounter(),
		LabelsBySuffix:  make(map[string]*stats.Counter),
		DomainsBySuffix: make(map[string][]string),
	}
	seenDomains := make(map[string]bool)
	for _, p := range partials {
		c.ValidFQDNs += p.validFQDNs
		c.Rejected += p.rejected
		c.Labels.AddMap(p.labels)
		for suffix, counts := range p.labelsBySuffix {
			sc := c.LabelsBySuffix[suffix]
			if sc == nil {
				sc = stats.NewCounter()
				c.LabelsBySuffix[suffix] = sc
			}
			sc.AddMap(counts)
		}
		for regDomain, suffix := range p.domains {
			if !seenDomains[regDomain] {
				seenDomains[regDomain] = true
				c.DomainsBySuffix[suffix] = append(c.DomainsBySuffix[suffix], regDomain)
			}
		}
	}
	for _, domains := range c.DomainsBySuffix {
		sort.Strings(domains)
	}
	return c
}

// Table2 returns the top-k subdomain labels.
func (c *Census) Table2(k int) []stats.KV { return c.Labels.TopK(k) }

// TopLabelPerSuffix returns each suffix's most common subdomain label
// (Section 4.2), for suffixes with at least minCount label occurrences.
func (c *Census) TopLabelPerSuffix(minCount uint64) map[string]string {
	out := make(map[string]string)
	for suffix, counter := range c.LabelsBySuffix {
		top := counter.TopK(1)
		if len(top) == 1 && top[0].Count >= minCount {
			out[suffix] = top[0].Key
		}
	}
	return out
}

// WordlistCoverage reports how many entries of an external wordlist (such
// as subbrute's 101k or dnsrecon's 1.9k) occur as subdomain labels in the
// census — the paper finds just 16 and 12 respectively, showing the tools
// would not discover real CT-logged names.
func (c *Census) WordlistCoverage(wordlist []string) int {
	n := 0
	for _, w := range wordlist {
		if c.Labels.Get(dnsname.Normalize(w)) > 0 {
			n++
		}
	}
	return n
}
