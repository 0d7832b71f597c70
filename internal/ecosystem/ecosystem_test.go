package ecosystem

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"ctrise/internal/ca"
	"ctrise/internal/ctlog"
	"ctrise/internal/metrics"
)

func TestClockBasics(t *testing.T) {
	c := NewClock(Date(2018, 4, 1))
	if !c.Now().Equal(Date(2018, 4, 1)) {
		t.Fatal("initial time")
	}
	c.Set(Date(2017, 1, 1))
	if !c.Now().Equal(Date(2017, 1, 1)) {
		t.Fatal("set")
	}
}

func TestRateModelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	le := RateModel{Start: Date(2018, 3, 8), Base: 2.3e6, RampStart: Date(2018, 3, 8), RampRate: 2.3e6}
	if r := le.Rate(Date(2018, 2, 1), rng); r != 0 {
		t.Fatalf("LE before start: %v", r)
	}
	if r := le.Rate(Date(2018, 4, 1), rng); r != 2.3e6 {
		t.Fatalf("LE after ramp: %v", r)
	}

	sc := RateModel{Start: Date(2015, 9, 1), End: Date(2017, 10, 1), Base: 1000}
	if r := sc.Rate(Date(2018, 1, 1), rng); r != 0 {
		t.Fatalf("StartCom after end: %v", r)
	}
	if r := sc.Rate(Date(2016, 1, 1), rng); r != 1000 {
		t.Fatalf("StartCom active: %v", r)
	}

	dg := RateModel{Start: Date(2015, 3, 1), Base: 8000, GrowthPerYear: 2.2}
	early := dg.Rate(Date(2015, 6, 1), rng)
	late := dg.Rate(Date(2017, 6, 1), rng)
	if late <= early*3 {
		t.Fatalf("DigiCert growth: early=%v late=%v", early, late)
	}
}

func TestRateModelBursts(t *testing.T) {
	m := RateModel{Start: Date(2016, 1, 1), Base: 100, BurstProb: 0.5, BurstFactor: 10}
	rng := rand.New(rand.NewSource(3))
	seenBurst, seenBase := false, false
	for i := 0; i < 100; i++ {
		r := m.Rate(Date(2016, 6, 1), rng)
		if r == 1000 {
			seenBurst = true
		}
		if r == 100 {
			seenBase = true
		}
	}
	if !seenBurst || !seenBase {
		t.Fatalf("burst=%v base=%v", seenBurst, seenBase)
	}
}

func TestNamesForDomainModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		for _, n := range NamesForDomain(rng, "example.com", "com") {
			if n == "example.com" {
				continue
			}
			label := n[:len(n)-len(".example.com")]
			counts[label]++
		}
	}
	// www dominates (~95%).
	if p := float64(counts["www"]) / draws; p < 0.93 || p > 0.97 {
		t.Fatalf("www share = %v", p)
	}
	// mail is the clear number two (cpanel cluster + independent draw).
	if counts["mail"] <= counts["webdisk"] {
		t.Fatalf("mail=%d webdisk=%d", counts["mail"], counts["webdisk"])
	}
	// The cPanel cluster is correlated: webdisk ≈ cpanel ≈ webmail.
	ratio := float64(counts["webdisk"]) / float64(counts["cpanel"])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("cpanel cluster decorrelated: webdisk=%d cpanel=%d", counts["webdisk"], counts["cpanel"])
	}
	// autodiscover is a strict subset of the cluster.
	if counts["autodiscover"] >= counts["cpanel"] {
		t.Fatalf("autodiscover=%d cpanel=%d", counts["autodiscover"], counts["cpanel"])
	}
	// Tail labels exist but are far below www.
	if counts["smtp"] == 0 || counts["smtp"] > counts["www"]/20 {
		t.Fatalf("smtp = %d (www = %d)", counts["smtp"], counts["www"])
	}
}

func TestNamesForDomainSuffixAffinity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	git := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		for _, n := range NamesForDomain(rng, "startup.tech", "tech") {
			if n == "git.startup.tech" {
				git++
			}
		}
	}
	if p := float64(git) / draws; p < 0.6 || p > 0.8 {
		t.Fatalf("git affinity on .tech = %v, want ≈0.70", p)
	}
	// The affinity label beats www on its suffix (Section 4.2: git is the
	// most common label for .tech).
	www := 0
	for i := 0; i < draws; i++ {
		for _, n := range NamesForDomain(rng, "another.tech", "tech") {
			if n == "www.another.tech" {
				www++
			}
		}
	}
	if www >= git {
		t.Fatalf("www (%d) >= git (%d) on .tech", www, git)
	}
	// No git affinity outside .tech.
	git = 0
	for i := 0; i < draws; i++ {
		for _, n := range NamesForDomain(rng, "startup.com", "com") {
			if n == "git.startup.com" {
				git++
			}
		}
	}
	if git != 0 {
		t.Fatalf("git leaked to .com: %d", git)
	}
}

func TestDomainNameDeterministicUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		n := DomainName(i)
		if seen[n] {
			t.Fatalf("duplicate domain name %q at %d", n, i)
		}
		seen[n] = true
	}
	if DomainName(42) != DomainName(42) {
		t.Fatal("not deterministic")
	}
}

func TestWorldConstruction(t *testing.T) {
	w, err := New(Config{Seed: 1, NumDomains: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Logs) != 15 || len(w.LogNames) != 15 {
		t.Fatalf("logs = %d", len(w.Logs))
	}
	if len(w.CAs) != 6 {
		t.Fatalf("CAs = %d", len(w.CAs))
	}
	if len(w.Domains) != 100 {
		t.Fatalf("domains = %d", len(w.Domains))
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() uint64 {
		w, err := New(Config{
			Seed:          42,
			Scale:         1e-4,
			TimelineStart: Date(2018, 3, 1),
			TimelineEnd:   Date(2018, 3, 11),
			NumDomains:    500,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunTimeline(nil); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, l := range w.Logs {
			total += l.TreeSize()
		}
		return total
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("no entries in March 2018 window")
	}
}

func TestTimelineShapes(t *testing.T) {
	w, err := New(Config{
		Seed:          7,
		Scale:         1e-4,
		TimelineStart: Date(2018, 2, 20),
		TimelineEnd:   Date(2018, 4, 10),
		NumDomains:    1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	days := 0
	if err := w.RunTimeline(func(time.Time) { days++ }); err != nil {
		t.Fatal(err)
	}
	if days != 49 {
		t.Fatalf("days = %d", days)
	}
	h, err := w.HarvestLogs(Date(2018, 4, 1), Date(2018, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Let's Encrypt switch-on: zero before March 8, dominant after.
	_, series := h.CumulativeByOrg()
	le := series[CALetsEncrypt]
	if le == nil {
		t.Fatal("no LE series")
	}
	var leTotal, allTotal float64
	for org, s := range series {
		if len(s) == 0 {
			continue
		}
		allTotal += s[len(s)-1]
		if org == CALetsEncrypt {
			leTotal = s[len(s)-1]
		}
	}
	if leTotal/allTotal < 0.5 {
		t.Fatalf("LE share after March = %v, want dominant", leTotal/allTotal)
	}
	// Nimbus2018 should be among the largest logs (LE load concentration).
	nimbus, larger := w.Logs[LogNimbus2018].TreeSize(), 0
	for _, l := range w.Logs {
		if l.TreeSize() > nimbus {
			larger++
		}
	}
	if larger > 1 {
		t.Fatalf("Nimbus2018 (%d entries) not in top-2 logs: %d logs are larger", nimbus, larger)
	}
	// Heatmap sparsity: LE publishes to few logs.
	leLogs := h.PrecertsByOrgLog[CALetsEncrypt]
	if leLogs == nil {
		t.Fatal("no LE April heatmap row")
	}
	if leLogs.Len() > 5 {
		t.Fatalf("LE spread over %d logs, want few", leLogs.Len())
	}
	if h.TotalPrecerts == 0 || h.NameSet.Len() == 0 {
		t.Fatal("empty harvest")
	}
}

// rejected reads the log's ctlog_rejected_total sample.
func rejected(l *ctlog.Log) string {
	var w metrics.Writer
	l.WriteMetrics(&w)
	for _, line := range strings.Split(w.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "ctlog_rejected_total "); ok {
			return v
		}
	}
	return ""
}

// logHeads lists every log that holds entries or has rejected a
// submission as "name size root-prefix rejected", in Table 1 order.
func logHeads(w *World) []string {
	var out []string
	for _, name := range w.LogNames {
		l := w.Logs[name]
		th := l.STH().TreeHead
		if th.TreeSize == 0 && rejected(l) == "0" {
			continue
		}
		out = append(out, fmt.Sprintf("%s %d %x %s", name, th.TreeSize, th.RootHash[:4], rejected(l)))
	}
	return out
}

// coupledReplayConfig is the short March 2018 window both coupled-replay
// pins run.
func coupledReplayConfig(parallelism int, nimbusCapacity float64) Config {
	return Config{
		Seed:           3,
		Scale:          1e-4,
		TimelineStart:  Date(2018, 3, 8),
		TimelineEnd:    Date(2018, 3, 12),
		NumDomains:     200,
		NimbusCapacity: nimbusCapacity,
		Parallelism:    parallelism,
	}
}

// TestNimbusOverloadDropsSubmissions replays the coupled timeline with
// an overloaded Nimbus and pins every log's head at parallelism 1 and 4.
func TestNimbusOverloadDropsSubmissions(t *testing.T) {
	// With a tiny Nimbus capacity, the timeline still completes and the
	// log records rejections (the Section 2 incident shape). The per-log
	// heads are pinned: an overload drop ends the rest of its issuance,
	// so every log's tree depends on the (CA, plan) submission order, and
	// it must not depend on Parallelism.
	want := []string{
		"Google Pilot log 163 b630eb4a 0",
		"Google Rocketeer log 97 7073cc8e 0",
		"DigiCert Log Server 95 f6719321 0",
		"Google Skydiver log 48 de965a03 0",
		"DigiCert Log Server 2 45 3a272fbf 0",
		"Comodo Mammoth CT log 92 f283c684 0",
		"Cloudflare Nimbus2018 Log 4 276f4c70 801",
		"Google Icarus log 119 58c5821a 0",
		"Comodo Sabre CT log 47 c6a4836f 0",
	}
	for _, p := range []int{1, 4} {
		w, err := New(coupledReplayConfig(p, 0.0001))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunTimeline(nil); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if rejected(w.Logs[LogNimbus2018]) == "0" {
			t.Fatalf("parallelism %d: overloaded Nimbus rejected nothing", p)
		}
		if got := logHeads(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: log heads\n got %q\nwant %q", p, got, want)
		}
	}
}

// A CA that also logs its final certificates (Let's Encrypt's
// post-disclosure behaviour) couples each final certificate to the SCTs
// its precertificate collected. The per-log heads are pinned, the same
// at parallelism 1 and 4.
func TestFinalCertLoggingReplayPinned(t *testing.T) {
	want := []string{
		"Google Pilot log 278 460f1035 0",
		"Google Rocketeer log 469 8045ffae 0",
		"DigiCert Log Server 95 f6719321 0",
		"Google Skydiver log 48 de965a03 0",
		"DigiCert Log Server 2 45 3a272fbf 0",
		"Comodo Mammoth CT log 92 f283c684 0",
		"Cloudflare Nimbus2018 Log 1610 67a1acc2 0",
		"Google Icarus log 1580 5790b5e5 0",
		"Comodo Sabre CT log 307 49a1e193 0",
	}
	for _, p := range []int{1, 4} {
		w, err := New(coupledReplayConfig(p, 0))
		if err != nil {
			t.Fatal(err)
		}
		le, err := ca.New(ca.Config{
			Name:          CALetsEncrypt + " Authority",
			Org:           CALetsEncrypt,
			Logs:          []ca.LogSubmitter{w.Logs[LogGooglePilot]},
			Clock:         w.Clock.Now,
			LogFinalCerts: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.CAs[CALetsEncrypt] = le
		if err := w.RunTimeline(nil); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if got := logHeads(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: log heads\n got %q\nwant %q", p, got, want)
		}
	}
}

func TestSuffixForDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[SuffixFor(rng)]++
	}
	if p := float64(counts["com"]) / 20000; p < 0.40 || p > 0.52 {
		t.Fatalf("com share = %v", p)
	}
	if counts["tk"] == 0 || counts["gov.uk"] == 0 {
		t.Fatal("tail suffixes unrepresented")
	}
}

// The sparse early timeline is mostly empty days (no CA issues anything
// at simulation scale). The pipelined replay must flow such days
// through the construct → commit stages without tripping on the absent
// preps, and still publish an STH per log per day.
func TestTimelineEmptyDaysPipelined(t *testing.T) {
	for _, p := range []int{1, 4} {
		w, err := New(Config{
			Seed:          9,
			Scale:         1e-4,
			TimelineStart: Date(2015, 1, 1),
			TimelineEnd:   Date(2015, 1, 8),
			NumDomains:    500,
			Parallelism:   p,
		})
		if err != nil {
			t.Fatal(err)
		}
		days := 0
		if err := w.RunTimeline(func(time.Time) { days++ }); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if days != 7 {
			t.Fatalf("parallelism %d: days = %d", p, days)
		}
		for _, name := range w.LogNames {
			sth := w.Logs[name].STH()
			if got := time.UnixMilli(int64(sth.TreeHead.Timestamp)).UTC(); !got.Equal(Date(2015, 1, 8)) {
				t.Fatalf("parallelism %d: %s final STH at %v", p, name, got)
			}
		}
	}
}
