// Command cthoneypot runs the Section 6 CT honeypot experiment: 11
// random subdomains leaked exclusively through a CT log on the paper's
// schedule, observed by a calibrated attacker population, and summarized
// as Table 4 plus the EDNS-client-subnet and port-scan analyses.
//
// Usage:
//
//	cthoneypot [-seed 2018]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"ctrise/internal/asn"
	"ctrise/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run renders the experiment's report to stdout. A flag error exits the
// process with status 2, as the flag package does for main.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cthoneypot", flag.ExitOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 2018, "run seed (ctrise -seed with the same value prints the same Table 4)")
	fs.Parse(args)

	t4, err := experiments.RunTable4(*seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, t4.RenderTable4())

	fmt.Fprintln(stdout, "EDNS Client Subnet usage (reveals clients behind Google Public DNS):")
	ecs := t4.Honeypot.ECSStats()
	for _, kv := range ecs.TopK(ecs.Len()) {
		fmt.Fprintf(stdout, "  %-18s %d queries\n", kv.Key, kv.Count)
	}

	fmt.Fprintln(stdout, "\nPort scans (SYN probes per source AS):")
	scans := t4.Honeypot.PortScanStats()
	var ases []uint32
	for as := range scans {
		ases = append(ases, as)
	}
	// Most ports first; equal counts by AS number, so the report is the
	// same on every run despite the map's iteration order.
	sort.Slice(ases, func(i, j int) bool {
		if ni, nj := len(scans[ases[i]]), len(scans[ases[j]]); ni != nj {
			return ni > nj
		}
		return ases[i] < ases[j]
	})
	reg := asn.DefaultRegistry()
	for _, as := range ases {
		name := fmt.Sprintf("AS%d", as)
		if a := reg.AS(as); a != nil {
			name = a.String()
		}
		fmt.Fprintf(stdout, "  %-28s %d distinct ports\n", name, len(scans[as]))
	}
	fmt.Fprintf(stdout, "\ninbound packets to unique IPv6 addresses: %d (CA validation filtered)\n",
		t4.Honeypot.IPv6Contacts())
	return nil
}
