package scanner

import (
	"bytes"
	"testing"

	"ctrise/internal/ca"
	"ctrise/internal/ecosystem"
	"ctrise/internal/sct"
)

func testWorld(t *testing.T) *ecosystem.World {
	t.Helper()
	w, err := ecosystem.New(ecosystem.Config{Seed: 5, NumDomains: 2000})
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Set(ecosystem.Date(2018, 5, 18)) // the paper's scan date
	return w
}

func logNames(w *ecosystem.World) map[sct.LogID]string {
	m := make(map[sct.LogID]string)
	for name, l := range w.Logs {
		m[l.LogID()] = name
	}
	return m
}

func buildPop(t *testing.T, w *ecosystem.World, cfg PopConfig) []*Site {
	t.Helper()
	sites, err := BuildPopulation(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sites
}

func TestPopulationSize(t *testing.T) {
	w := testWorld(t)
	sites := buildPop(t, w, PopConfig{Seed: 1, NumSites: 500})
	// 500 regular + 16 faulty.
	if len(sites) != 516 {
		t.Fatalf("sites = %d", len(sites))
	}
}

func TestScanMatchesSection33Shape(t *testing.T) {
	w := testWorld(t)
	sites := buildPop(t, w, PopConfig{Seed: 2, NumSites: 4000})
	st, err := ScanParallel(sites, logNames(w), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCerts != uint64(len(sites)) {
		t.Fatalf("certs = %d", st.TotalCerts)
	}
	// 68.7% embedded SCTs (±3pp).
	embedPct := 100 * float64(st.WithEmbeddedSCT) / float64(st.TotalCerts)
	if embedPct < 65 || embedPct > 73 {
		t.Fatalf("embedded share = %.1f%%, want ≈68.7%%", embedPct)
	}
	// The active-scan log mix differs sharply from the passive Table 1:
	// Nimbus2018 and Icarus lead (74% / 71% in the paper).
	nimbus := st.LogPercent(ecosystem.LogNimbus2018)
	icarus := st.LogPercent(ecosystem.LogGoogleIcarus)
	rocketeer := st.LogPercent(ecosystem.LogGoogleRocketeer)
	sabre := st.LogPercent(ecosystem.LogComodoSabre)
	if nimbus < 65 || nimbus > 85 {
		t.Errorf("Nimbus2018 = %.1f%%, want ≈74%%", nimbus)
	}
	if icarus < 60 || icarus > 82 {
		t.Errorf("Icarus = %.1f%%, want ≈71%%", icarus)
	}
	if rocketeer < 12 || rocketeer > 28 {
		t.Errorf("Rocketeer = %.1f%%, want ≈19%%", rocketeer)
	}
	if sabre < 7 || sabre > 20 {
		t.Errorf("Sabre = %.1f%%, want ≈12.5%%", sabre)
	}
	// Pilot is far behind in the active view despite leading Table 1.
	if pilot := st.LogPercent(ecosystem.LogGooglePilot); pilot > 25 {
		t.Errorf("Pilot = %.1f%%, should be a minor player by cert count", pilot)
	}
	// TLS-extension delivery is rare (≈0.8% of certs).
	tlsPct := 100 * float64(st.TLSExtCerts) / float64(st.TotalCerts)
	if tlsPct > 2 {
		t.Errorf("TLS-ext certs = %.2f%%", tlsPct)
	}
	// SNI multiplexing: ~12 certs per IP.
	ratio := float64(st.TotalCerts) / float64(st.TotalIPs)
	if ratio < 10 || ratio > 14 {
		t.Errorf("certs/IP = %.1f, want ≈12", ratio)
	}
	if st.IPsServingSCT == 0 || st.IPsServingSCT > st.TotalIPs {
		t.Errorf("IPs serving SCT = %d of %d", st.IPsServingSCT, st.TotalIPs)
	}
}

func TestSection34DetectorFindsExactlyTheFaulty(t *testing.T) {
	w := testWorld(t)
	sites := buildPop(t, w, PopConfig{Seed: 3, NumSites: 1500})
	findings, err := DetectInvalidSCTsParallel(sites, w.Verifiers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 16 certificates from 4 CAs, exactly as in the paper.
	if len(findings) != 16 {
		t.Fatalf("findings = %d, want 16", len(findings))
	}
	byCA := CountByCA(findings)
	if len(byCA) != 4 {
		t.Fatalf("CAs = %v", byCA)
	}
	want := map[string]int{
		"GlobalSign (faulty)": 12,
		"D-TRUST":             2,
		"NetLock":             1,
		"TeliaSonera":         1,
	}
	for caName, n := range want {
		if byCA[caName] != n {
			t.Errorf("%s findings = %d, want %d", caName, byCA[caName], n)
		}
	}
	// No honest certificate is flagged (zero false positives).
	for _, f := range findings {
		if f.Problems == nil {
			t.Errorf("finding without problems: %+v", f)
		}
	}
}

func TestDetectorZeroFalsePositives(t *testing.T) {
	w := testWorld(t)
	sites := buildPop(t, w, PopConfig{
		Seed: 4, NumSites: 800,
		// Disable fault injection by setting one count to -1 and the rest 0:
		FaultySANReorder: -1,
	})
	// -1 means "no faulty sites" (loop runs zero times).
	findings, err := DetectInvalidSCTsParallel(sites, w.Verifiers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("false positives: %d", len(findings))
	}
}

func TestFaultKindsRecorded(t *testing.T) {
	w := testWorld(t)
	sites := buildPop(t, w, PopConfig{Seed: 5, NumSites: 10})
	kinds := map[ca.Fault]int{}
	for _, s := range sites {
		if s.Fault != ca.FaultNone {
			kinds[s.Fault]++
		}
	}
	if kinds[ca.FaultSANReorder] != 12 || kinds[ca.FaultExtReorder] != 2 ||
		kinds[ca.FaultSANReplace] != 1 || kinds[ca.FaultStaleSCT] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestBuildPopulationDeterministic requires the scan population to be a
// function of its seed: every site's certificate, serial included, is
// byte-identical at parallelism 1, 4 and 13.
func TestBuildPopulationDeterministic(t *testing.T) {
	count := func() uint64 {
		w := testWorld(t)
		sites := buildPop(t, w, PopConfig{Seed: 6, NumSites: 300})
		st, err := ScanParallel(sites, logNames(w), 0)
		if err != nil {
			t.Fatal(err)
		}
		return st.WithEmbeddedSCT
	}
	if count() != count() {
		t.Fatal("population not deterministic")
	}

	// Every site's certificate, serial number included, is the same bytes
	// at every Parallelism on a fresh world.
	encoded := func(p int) [][]byte {
		w := testWorld(t)
		sites := buildPop(t, w, PopConfig{Seed: 6, NumSites: 1000, Parallelism: p})
		out := make([][]byte, len(sites))
		for i, s := range sites {
			enc, err := s.Cert.Encode()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = enc
		}
		return out
	}
	want := encoded(1)
	for _, p := range []int{4, 13} {
		got := encoded(p)
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d sites, want %d", p, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("parallelism %d: site %d certificate differs from parallelism 1", p, i)
			}
		}
	}
}
