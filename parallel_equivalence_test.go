package ctrise_test

import (
	"reflect"
	"testing"

	"ctrise/internal/ecosystem"
	"ctrise/internal/psl"
	"ctrise/internal/subenum"
)

// The concurrent sharded harvest-and-analysis pipeline must be invisible
// in the output: harvesting and parsing the same world with Parallelism 1
// and Parallelism 8 yields identical totals, day series, heatmaps, name
// sets, and Table 2 rows. Running this test under -race also exercises
// the concurrent crawl workers, the sharded FQDN-dedup set, and the
// census chunk workers.
func TestParallelPipelineEquivalence(t *testing.T) {
	w, err := ecosystem.New(ecosystem.Config{
		Seed:          42,
		Scale:         1e-4,
		TimelineStart: ecosystem.Date(2018, 2, 1),
		TimelineEnd:   ecosystem.Date(2018, 4, 20),
		NumDomains:    2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	heatFrom, heatTo := ecosystem.Date(2018, 4, 1), ecosystem.Date(2018, 5, 1)

	seq, err := w.HarvestLogsParallel(heatFrom, heatTo, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := w.HarvestLogsParallel(heatFrom, heatTo, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Totals.
	if seq.TotalPrecerts == 0 {
		t.Fatal("sequential harvest saw no precerts")
	}
	if seq.TotalPrecerts != par.TotalPrecerts || seq.TotalFinal != par.TotalFinal {
		t.Fatalf("totals differ: seq=%d/%d par=%d/%d",
			seq.TotalPrecerts, seq.TotalFinal, par.TotalPrecerts, par.TotalFinal)
	}
	// Name sets.
	seqNames, parNames := map[string]struct{}{}, map[string]struct{}{}
	seq.NameSet.ForEach(func(n string) { seqNames[n] = struct{}{} })
	par.NameSet.ForEach(func(n string) { parNames[n] = struct{}{} })
	if len(seqNames) == 0 || !reflect.DeepEqual(seqNames, parNames) {
		t.Fatalf("name sets differ: seq=%d par=%d", len(seqNames), len(parNames))
	}
	// Day series, cell by cell.
	seqDays, seqOrgs, seqTable := seq.PrecertsByOrgDay.Table()
	parDays, parOrgs, parTable := par.PrecertsByOrgDay.Table()
	if !reflect.DeepEqual(seqDays, parDays) || !reflect.DeepEqual(seqOrgs, parOrgs) {
		t.Fatalf("series axes differ")
	}
	if !reflect.DeepEqual(seqTable, parTable) {
		t.Fatal("day series values differ")
	}
	// Figure aggregations built on the series.
	d1, c1 := seq.CumulativeByOrg()
	d2, c2 := par.CumulativeByOrg()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("cumulative series differ")
	}
	_, s1 := seq.DailyShareByOrg()
	_, s2 := par.DailyShareByOrg()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("daily shares differ")
	}
	// Heatmap counters (Figure 1c).
	if len(seq.PrecertsByOrgLog) == 0 || len(seq.PrecertsByOrgLog) != len(par.PrecertsByOrgLog) {
		t.Fatalf("heatmap org sets differ: %d vs %d", len(seq.PrecertsByOrgLog), len(par.PrecertsByOrgLog))
	}
	for org, sc := range seq.PrecertsByOrgLog {
		pc := par.PrecertsByOrgLog[org]
		if pc == nil || !reflect.DeepEqual(sc.Snapshot(), pc.Snapshot()) {
			t.Fatalf("heatmap differs for org %q", org)
		}
	}

	// Census over the harvested corpus: Table 2 and friends. The
	// sequential side materializes a map; the parallel side consumes the
	// sharded set zero-copy — both must agree.
	list := psl.Default()
	seqCensus := subenum.RunCensusParallel(seqNames, list, 1)
	parCensus := subenum.RunCensusSet(par.NameSet, list, 8)
	if seqCensus.ValidFQDNs == 0 {
		t.Fatal("census saw no valid FQDNs")
	}
	if seqCensus.ValidFQDNs != parCensus.ValidFQDNs || seqCensus.Rejected != parCensus.Rejected {
		t.Fatal("census totals differ")
	}
	if !reflect.DeepEqual(seqCensus.Labels.Snapshot(), parCensus.Labels.Snapshot()) {
		t.Fatal("census label counts differ")
	}
	if !reflect.DeepEqual(seqCensus.DomainsBySuffix, parCensus.DomainsBySuffix) {
		t.Fatal("census domain lists differ")
	}
	if !reflect.DeepEqual(seqCensus.Table2(20), parCensus.Table2(20)) {
		t.Fatal("Table 2 rows differ")
	}
}
