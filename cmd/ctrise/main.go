// Command ctrise runs every experiment of the paper reproduction and
// renders all tables and figures.
//
// Usage:
//
//	ctrise [-seed 2018] [-scale 1] [-domains 20000] [-parallelism 0] [-only fig1,fig2,tab1,scan,sec4,tab3,tab4]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"ctrise/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run renders the experiments selected by args to stdout and the timing
// line to stderr. A flag error exits the process with status 2, as the flag
// package does for main.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ctrise", flag.ExitOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 2018, "simulation seed")
	scale := fs.Float64("scale", 1, "scale multiplier (1 = fast defaults)")
	domains := fs.Int("domains", 20000, "registrable-domain population size")
	only := fs.String("only", "", "comma-separated subset: fig1,fig2,tab1,scan,sec4,tab3,tab4")
	parallelism := fs.Int("parallelism", 0, "worker bound for all pipelines, generation and analysis (0 = GOMAXPROCS, 1 = every stage inline on the calling goroutine)")
	fs.Parse(args)

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	enabled := func(k string) bool { return len(want) == 0 || want[k] }

	s := experiments.NewSuite(experiments.Options{
		Seed:        *seed,
		Scale:       *scale,
		NumDomains:  *domains,
		Parallelism: *parallelism,
	})
	start := time.Now()

	if enabled("fig1") {
		r, err := s.Figure1()
		if err != nil {
			return fmt.Errorf("figure 1: %w", err)
		}
		section(stdout, "SECTION 2: TIMELINE OF CT LOG EVOLUTION")
		fmt.Fprintln(stdout, r.RenderFigure1a())
		fmt.Fprintln(stdout, r.RenderFigure1b())
		fmt.Fprintln(stdout, r.RenderFigure1c())
		fmt.Fprintf(stdout, "total harvested precertificates: %d\n\n", r.TotalPrecerts)
	}

	if enabled("fig2") || enabled("tab1") {
		r := s.Traffic()
		section(stdout, "SECTION 3.2: PASSIVE CT ADOPTION (UCB-UPLINK SHAPE)")
		fmt.Fprintln(stdout, r.RenderTotals())
		if enabled("fig2") {
			fmt.Fprintln(stdout, r.RenderFigure2())
		}
		if enabled("tab1") {
			fmt.Fprintln(stdout, r.RenderTable1())
		}
	}

	if enabled("scan") {
		r, err := s.Scan()
		if err != nil {
			return fmt.Errorf("scan: %w", err)
		}
		section(stdout, "SECTION 3.3/3.4: ACTIVE SCAN")
		fmt.Fprintln(stdout, r.RenderSection33())
		fmt.Fprintln(stdout, r.RenderSection34())
	}

	if enabled("sec4") {
		r, err := s.Section4()
		if err != nil {
			return fmt.Errorf("section 4: %w", err)
		}
		section(stdout, "SECTION 4: LEAKAGE OF DNS INFORMATION")
		fmt.Fprintln(stdout, r.RenderTable2())
		fmt.Fprintln(stdout, r.RenderSection43())
	}

	if enabled("tab3") {
		r, err := s.Table3()
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		section(stdout, "SECTION 5: DETECTING PHISHING DOMAINS")
		fmt.Fprintln(stdout, r.RenderTable3())
	}

	if enabled("tab4") {
		r, err := s.Table4()
		if err != nil {
			return fmt.Errorf("table 4: %w", err)
		}
		section(stdout, "SECTION 6: CT HONEYPOT")
		fmt.Fprintln(stdout, r.RenderTable4())
	}

	fmt.Fprintf(stderr, "ctrise: done in %v (seed=%d scale=%g domains=%d)\n",
		time.Since(start).Round(time.Millisecond), *seed, *scale, *domains)
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%s\n%s\n\n", strings.Repeat("=", len(title)), title, strings.Repeat("=", len(title)))
}
