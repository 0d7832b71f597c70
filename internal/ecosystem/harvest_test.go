package ecosystem

import (
	"testing"
	"time"
)

// The harvester must count entries it cannot attribute (e.g. hand-
// submitted DER from outside the simulation) without crashing or
// polluting the per-CA series.
func TestHarvestToleratesForeignEntries(t *testing.T) {
	w, err := New(Config{
		Seed:          13,
		Scale:         1e-4,
		TimelineStart: Date(2018, 3, 8),
		TimelineEnd:   Date(2018, 3, 12),
		NumDomains:    300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	// Inject opaque entries directly into a log: one final cert, one
	// precert, neither in the synthetic codec.
	l := w.Logs[LogGooglePilot]
	if _, err := l.AddChain([]byte("\x30\x82raw der-ish bytes")); err != nil {
		t.Fatal(err)
	}
	var ikh [32]byte
	if _, err := l.AddPreChain(ikh, []byte("\x30\x82raw tbs bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}

	h, err := w.HarvestLogs(Date(2018, 4, 1), Date(2018, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalFinal != 1 {
		t.Fatalf("foreign final certs = %d, want 1", h.TotalFinal)
	}
	if h.TotalPrecerts == 0 {
		t.Fatal("no precerts")
	}
	// The foreign precert is counted but attributed to no organization:
	// per-org day series only contain the simulation's six CAs.
	_, orgs, _ := h.PrecertsByOrgDay.Table()
	for _, org := range orgs {
		switch org {
		case CALetsEncrypt, CADigiCert, CAComodo, CAGlobalSign, CAStartCom, CAOther:
		default:
			t.Fatalf("unexpected org series %q", org)
		}
	}
}

// Harvest day series align with the virtual timeline: every logged day
// falls inside [TimelineStart, TimelineEnd).
func TestHarvestDaysWithinTimeline(t *testing.T) {
	w, err := New(Config{
		Seed:          14,
		Scale:         1e-4,
		TimelineStart: Date(2018, 3, 8),
		TimelineEnd:   Date(2018, 3, 15),
		NumDomains:    300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	h, err := w.HarvestLogs(Date(2018, 4, 1), Date(2018, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	days, _ := h.CumulativeByOrg()
	for _, d := range days {
		parsed, err := time.Parse("2006-01-02", d)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.Before(Date(2018, 3, 8)) || !parsed.Before(Date(2018, 3, 15)) {
			t.Fatalf("day %s outside timeline", d)
		}
	}
	// Cumulative series are monotone.
	_, series := h.CumulativeByOrg()
	for org, s := range series {
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				t.Fatalf("%s cumulative decreases at %d", org, i)
			}
		}
	}
}
