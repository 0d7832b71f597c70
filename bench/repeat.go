package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the acceptance check computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runRepeated runs every workload n times, run i with seed+i, printing
// each run's rows and then, per end-to-end metric and workload, the
// median, the quartiles, and whether the spread between the quartiles
// fits the metric's bound.
func runRepeated(root string, spec *benchSpec, seed int64, p params, n int) error {
	values := make(map[string][]float64) // workload/metric → one value per run
	var failed int64
	for i := 0; i < n; i++ {
		for _, def := range workloadDefs {
			res, err := runWorkload(root, def, seed+int64(i), p)
			if err != nil {
				return err
			}
			if err := res.print(os.Stdout, spec.EndToEnd); err != nil {
				return err
			}
			failed += res.failed
			for name, v := range res.metrics {
				values[def.name+"/"+name] = append(values[def.name+"/"+name], v)
			}
		}
	}
	if n < 2 {
		return nil
	}
	fmt.Printf("\n%-8s %-26s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, def := range workloadDefs {
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[def.name+"/"+m.Name])
			spread := math.Abs(q3-q1) / q2
			verdict := "steady"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated on spread"
			case spread > m.Bound:
				verdict = "TOO NOISY for its bound"
			case spread > m.Bound/3:
				verdict = "above a third of its bound"
			}
			fmt.Printf("%-8s %-26s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
				def.name, m.Name, q2, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("bench: %d failed operations across the runs", failed)
	}
	return nil
}
