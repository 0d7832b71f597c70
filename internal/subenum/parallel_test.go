package subenum

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ctrise/internal/psl"
)

// syntheticCorpus builds a corpus large enough to cross the parallel
// census's chunking threshold, spread over several suffixes and labels.
func syntheticCorpus(n int) map[string]struct{} {
	labels := []string{"www", "mail", "api", "dev", "shop", "vpn", "git", "autoconfig"}
	suffixes := []string{"de", "nl", "fr", "it", "tech", "cloud", "co.uk"}
	rng := rand.New(rand.NewSource(99))
	corpus := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		dom := fmt.Sprintf("dom%d.%s", i%700, suffixes[rng.Intn(len(suffixes))])
		corpus[dom] = struct{}{}
		corpus[labels[rng.Intn(len(labels))]+"."+dom] = struct{}{}
		if i%17 == 0 {
			corpus["not_valid..name-"+fmt.Sprint(i)] = struct{}{}
		}
	}
	return corpus
}

// The parallel census must produce exactly the sequential census: same
// counts, same per-suffix breakdowns, same (sorted) domain lists, same
// Table 2 rows. This also exercises the concurrent chunk workers under
// -race.
func TestRunCensusParallelEquivalence(t *testing.T) {
	corpus := syntheticCorpus(3000)
	list := psl.Default()
	seq := RunCensusParallel(corpus, list, 1)
	par := RunCensusParallel(corpus, list, 8)

	if seq.ValidFQDNs != par.ValidFQDNs || seq.Rejected != par.Rejected {
		t.Fatalf("valid/rejected: seq=%d/%d par=%d/%d",
			seq.ValidFQDNs, seq.Rejected, par.ValidFQDNs, par.Rejected)
	}
	if !reflect.DeepEqual(seq.Labels.Snapshot(), par.Labels.Snapshot()) {
		t.Fatal("label counters differ")
	}
	if len(seq.LabelsBySuffix) != len(par.LabelsBySuffix) {
		t.Fatalf("suffix sets differ: %d vs %d", len(seq.LabelsBySuffix), len(par.LabelsBySuffix))
	}
	for suffix, sc := range seq.LabelsBySuffix {
		pc := par.LabelsBySuffix[suffix]
		if pc == nil || !reflect.DeepEqual(sc.Snapshot(), pc.Snapshot()) {
			t.Fatalf("per-suffix counters differ for %q", suffix)
		}
	}
	if !reflect.DeepEqual(seq.DomainsBySuffix, par.DomainsBySuffix) {
		t.Fatal("domain lists differ")
	}
	if !reflect.DeepEqual(seq.Table2(20), par.Table2(20)) {
		t.Fatal("Table 2 rows differ")
	}
}

// Construct must emit the identical candidate list (content and order) at
// any parallelism.
func TestConstructParallelEquivalence(t *testing.T) {
	corpus := syntheticCorpus(3000)
	c := RunCensus(corpus, psl.Default())
	domains := map[string][]string{}
	for suffix, ds := range c.DomainsBySuffix {
		domains[suffix] = ds
	}
	seq := Construct(c, domains, ConstructConfig{MinLabelCount: 2, Parallelism: 1})
	par := Construct(c, domains, ConstructConfig{MinLabelCount: 2, Parallelism: 8})
	if len(seq) == 0 {
		t.Fatal("no candidates constructed")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("candidate lists differ: seq=%d par=%d", len(seq), len(par))
	}
}

// Verify must produce the identical funnel (Section 4.3) at any resolver
// fan-out.
func TestVerifyParallelEquivalence(t *testing.T) {
	u := buildVerifyUniverse(t)
	rng := rand.New(rand.NewSource(7))
	var cands []Candidate
	for i := 0; i < 800; i++ {
		dom := []string{"real.de", "parked.tk", "chain.nl", "empty.fr"}[rng.Intn(4)]
		label := []string{"mail", "www", "x"}[rng.Intn(3)]
		cands = append(cands, Candidate{
			FQDN:   fmt.Sprintf("%s%d.%s", label, i, dom),
			Label:  label,
			Domain: dom,
		})
	}
	seq := Verify(cands, u, allRoutes{}, VerifyConfig{Seed: 8, Parallelism: 1})
	par := Verify(cands, u, allRoutes{}, VerifyConfig{Seed: 8, Parallelism: 16})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("funnels differ:\nseq=%+v\npar=%+v", seq, par)
	}
}
