package experiments

import (
	"fmt"
	"time"

	"ctrise/internal/honeypot"
	"ctrise/internal/report"
)

// Table4Result backs the honeypot experiment.
type Table4Result struct {
	Rows     []honeypot.Table4Row
	Honeypot *honeypot.Honeypot
}

// Table4 deploys the 11 CT-honeypot subdomains on the paper's schedule
// and runs the attacker population.
func (s *Suite) Table4() (*Table4Result, error) { return RunTable4(s.opts.Seed) }

// RunTable4 runs the honeypot experiment of the run seeded with seed.
// It owns the offset from the run seed to the honeypot's own, so ctrise,
// cthoneypot and the stream-vs-batch ablation name the same Table 4 by
// the same seed. modes restricts the attacker population as
// honeypot.RunExperiment does; none means every agent.
func RunTable4(seed int64, modes ...honeypot.AgentMode) (*Table4Result, error) {
	res, err := honeypot.RunExperiment(seed+66, modes...)
	if err != nil {
		return nil, err
	}
	return &Table4Result{Rows: res.Rows, Honeypot: res.Honeypot}, nil
}

// RenderTable4 renders the per-subdomain reaction table.
func (r *Table4Result) RenderTable4() string {
	tbl := &report.Table{
		Title:   "Table 4: CT honeypot — reactions per subdomain",
		Headers: []string{"", "CT log entry", "ΔDNS", "Q", "AS", "CS", "First 3 ASes", "ΔHTTP", "HTTP ASNs"},
	}
	for _, row := range r.Rows {
		firstThree := ""
		for i, as := range row.FirstThree {
			if i > 0 {
				firstThree += ","
			}
			firstThree += fmt.Sprint(as)
		}
		httpASNs := ""
		for i, as := range row.HTTPASNs {
			if i > 0 {
				httpASNs += ","
			}
			httpASNs += fmt.Sprint(as)
		}
		dHTTP := "-"
		if row.HasHTTP {
			dHTTP = shortDuration(row.DeltaHTTP)
		}
		tbl.AddRow(
			row.Name,
			row.CTLogEntry.Format("01-02 15:04:05"),
			shortDuration(row.DeltaDNS),
			fmt.Sprint(row.Queries),
			fmt.Sprint(row.ASes),
			fmt.Sprint(row.ECSSubnets),
			firstThree,
			dHTTP,
			httpASNs,
		)
	}
	ecs := r.Honeypot.ECSStats()
	tbl.AddRow("", fmt.Sprintf("unique EDNS client subnets: %d", ecs.Len()), "", "", "", "", "", "", "")
	tbl.AddRow("", fmt.Sprintf("IPv6 contacts: %d", r.Honeypot.IPv6Contacts()), "", "", "", "", "", "", "")
	return tbl.Render()
}

func shortDuration(d time.Duration) string {
	switch {
	case d >= 24*time.Hour:
		return fmt.Sprintf("%.0fd", d.Hours()/24)
	case d >= time.Hour:
		return fmt.Sprintf("%.0fm", d.Minutes())
	default:
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
}
