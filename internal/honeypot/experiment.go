package honeypot

import (
	"math/rand"
	"slices"
	"time"

	"ctrise/internal/ca"
	"ctrise/internal/ctlog"
	"ctrise/internal/dnsname"
	"ctrise/internal/ecosystem"
	"ctrise/internal/sct"
)

// Table4Schedule lists the CT-log times of the paper's 11 honeypot
// subdomains (A–K): three batches over 18 days.
var Table4Schedule = []time.Time{
	time.Date(2018, 4, 12, 14, 16, 59, 0, time.UTC), // A
	time.Date(2018, 4, 12, 14, 18, 31, 0, time.UTC), // B
	time.Date(2018, 4, 20, 10, 43, 44, 0, time.UTC), // C
	time.Date(2018, 4, 30, 13, 0, 28, 0, time.UTC),  // D
	time.Date(2018, 4, 30, 13, 3, 10, 0, time.UTC),  // E
	time.Date(2018, 4, 30, 13, 50, 6, 0, time.UTC),  // F
	time.Date(2018, 4, 30, 14, 0, 7, 0, time.UTC),   // G
	time.Date(2018, 4, 30, 14, 10, 7, 0, time.UTC),  // H
	time.Date(2018, 4, 30, 14, 20, 7, 0, time.UTC),  // I
	time.Date(2018, 4, 30, 14, 30, 7, 0, time.UTC),  // J
	time.Date(2018, 4, 30, 14, 40, 7, 0, time.UTC),  // K
}

// CaptureEnd is the end of the paper's packet capture.
var CaptureEnd = time.Date(2018, 5, 15, 14, 0, 0, 0, time.UTC)

// ExperimentResult bundles the experiment outputs.
type ExperimentResult struct {
	Honeypot *Honeypot
	Rows     []Table4Row
}

// RunExperiment deploys the 11 subdomains on the paper's schedule,
// leaks them through a CT log, runs the attacker population, and builds
// Table 4. Everything is driven by the seed and virtual time. With no
// modes every agent runs; otherwise only the agents of the given modes
// do — the stream-vs-batch ablation of the Section 6 analysis.
func RunExperiment(seed int64, modes ...AgentMode) (*ExperimentResult, error) {
	agents := DefaultAgents()
	if len(modes) > 0 {
		agents = slices.DeleteFunc(agents, func(a Agent) bool { return !slices.Contains(modes, a.Mode) })
	}
	clock := ecosystem.NewClock(Table4Schedule[0].Add(-time.Hour))
	log, err := ctlog.New(ctlog.Config{
		Name:   "Honeypot Leak Log",
		Signer: sct.NewFastSigner("Honeypot Leak Log"),
		Clock:  clock.Now,
	})
	if err != nil {
		return nil, err
	}
	caInst, err := ca.New(ca.Config{
		Name:  "ACME-style CA",
		Org:   "ACME-style CA",
		Logs:  []ca.LogSubmitter{log},
		Clock: clock.Now,
	})
	if err != nil {
		return nil, err
	}
	hp := New("ct-hp.example", clock, caInst, log)

	labelRng := rand.New(rand.NewSource(seed))
	for _, at := range Table4Schedule {
		clock.Set(at)
		if _, err := hp.Deploy(dnsname.RandomLabel(labelRng, 12)); err != nil {
			return nil, err
		}
	}

	Simulate(hp, agents, SimConfig{
		Seed:         seed,
		CaptureUntil: CaptureEnd,
		// Rows C and G saw their first HTTP contact only after 19 and 5
		// days respectively.
		LateHTTPOutliers: map[int]time.Duration{
			2: 19 * 24 * time.Hour,
			6: 5 * 24 * time.Hour,
		},
	})
	return &ExperimentResult{Honeypot: hp, Rows: hp.Table4()}, nil
}
